// Protocol selection and tunables shared by the search/caching systems.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "cache/response_index.h"
#include "common/status.h"
#include "sim/sim_time.h"

namespace locaware::core {

/// The four systems the paper evaluates (§5.1) plus the PR 10 structured
/// extensions (src/dht/).
enum class ProtocolKind {
  kFlooding,   ///< blind Gnutella flooding, no caching
  kDicas,      ///< Dicas [16]: filename-hash groups, single-provider indexes
  kDicasKeys,  ///< Dicas-Keys [16]: per-keyword-hash groups (duplicating)
  kLocaware,   ///< the paper's contribution (§4)
  kDht,        ///< pure Chord-style keyword->provider lookups (src/dht/)
  kHybrid,     ///< Locaware cache first, DHT escalation on an index miss
};

const char* ProtocolKindName(ProtocolKind kind);

/// Every registered protocol kind, in registry order (the paper's four, then
/// the structured extensions). Benches/examples that sweep "all protocols"
/// iterate this instead of hard-coding the list.
std::span<const ProtocolKind> AllProtocolKinds();

/// How a requester picks a provider among the candidates its responses offer.
enum class SelectionStrategy {
  /// Locaware §5.1: a provider with the requester's own locId if any;
  /// otherwise probe RTT to every candidate and take the smallest.
  kLocIdThenRtt,
  /// Probe everything, take the minimum RTT (location-awareness upper bound).
  kMinRtt,
  /// Uniform random candidate — the location-oblivious baseline behaviour.
  kRandom,
  /// First provider of the first response that arrived.
  kFirstResponder,
};

const char* SelectionStrategyName(SelectionStrategy strategy);

/// Tunables. Defaults reproduce the paper's §5.1 setup.
struct ProtocolParams {
  /// Query TTL (paper: 7).
  uint32_t ttl = 7;

  /// Dicas group count M (eq. 1). The paper never states it; 4 keeps the
  /// expected matching-neighbor count near 1 at average degree 3.
  uint16_t num_groups = 4;

  /// How many fallback neighbors carry a query onward when no neighbor
  /// matches the routing rule (random ones for Dicas, highest-degree for
  /// Locaware). 1 is the papers' literal wording, but on a degree-3 overlay
  /// a single fallback degenerates into a short random walk that duplicate
  /// suppression kills; 2 keeps the query alive (see EXPERIMENTS.md).
  size_t fallback_fanout = 2;

  /// Bloom filter shape (paper: 1200 bits for ~50 filenames × 3 keywords).
  size_t bloom_bits = 1200;
  size_t bloom_hashes = 4;

  /// Period of per-node maintenance (Bloom delta gossip, index expiry). The
  /// paper piggybacks filter deltas "along with any data exchange between
  /// neighbors", i.e. near-continuous propagation; 10 s keeps neighbor
  /// filters fresh at the paper's query rate without modelling piggybacking.
  sim::SimTime maintenance_interval = 10 * sim::kSecond;

  /// How long a requester collects responses before picking a provider.
  /// TTL 7 × max one-way 250 ms out plus back is < 4 s; 5 s is safely past it.
  sim::SimTime query_deadline = 5 * sim::kSecond;

  /// Max providers a response record carries back (Locaware sends the
  /// locId-matching entry plus a few recent others, §4.1.2).
  size_t max_response_providers = 3;

  /// Response-index shape. Locaware keeps several providers per filename;
  /// Dicas variants are forced to 1 by MakeDefaultParams.
  cache::ResponseIndexConfig ri;

  /// Provider selection; nullopt = the protocol's own default
  /// (Locaware → kLocIdThenRtt, everything else → kRandom).
  std::optional<SelectionStrategy> selection;

  /// Ablation switch: when false, Locaware stops advertising the requester as
  /// a new provider (disabling §4.1.2's natural-replication leverage).
  bool requester_becomes_provider = true;

  /// Extension (paper §6 future work): "investigate location-aware query
  /// routing in unstructured systems". When enabled, Locaware biases each
  /// forwarding tier toward neighbors in the *requester's* locality, steering
  /// walks to regions whose file stores and caches are close to the
  /// requester. Off by default — the paper's evaluated system does not route
  /// by location.
  bool loc_aware_routing = false;

  /// Chord DHT shape (kDht/kHybrid only; inert for the paper's four).
  /// Successor-list length: how many online clockwise neighbors a peer
  /// tracks. 4 survives the default churn model's correlated departures.
  size_t dht_successors = 4;
  /// Finger-table size: the top `dht_fingers` finger indices (targets
  /// self + 2^i for i in [64 - dht_fingers, 64)). 24 covers distinct
  /// fingers for populations up to ~2^24 peers.
  size_t dht_fingers = 24;
  /// Provider-record re-publish period; owners hold records for twice this,
  /// so a dead publisher's records expire after at most two intervals.
  sim::SimTime dht_republish_interval = 600 * sim::kSecond;
};

/// Paper-faithful parameter defaults for a protocol kind (e.g. Dicas keeps a
/// single provider per cached filename, Locaware several).
ProtocolParams MakeDefaultParams(ProtocolKind kind);

/// Rejects parameters that would fail every query of `kind`: TTL 0 for a
/// flooded protocol (never forwarded), no successors for a DHT-routed one.
Status ValidateProtocolParams(ProtocolKind kind, const ProtocolParams& params);

}  // namespace locaware::core
