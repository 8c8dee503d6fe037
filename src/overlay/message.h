// Wire messages exchanged over overlay links.
//
// Five message families cover every protocol in the paper: keyword queries
// (flooded/routed forward), query responses (routed back hop-by-hop along the
// query's reverse path, §3.1), Bloom-filter delta updates (Locaware §4.2),
// RTT probes (Locaware's provider-selection fallback, §5.1), and the
// link-repair handshake (LinkDrop / LinkProbe / LinkAccept) that carries
// churn's overlay rewiring as ordinary messages so it composes with the
// sharded engine. Sizes are estimated for the bandwidth-accounting metric.
//
// Messages carry interned ids (common/types.h), not strings; a real wire
// encoding would carry the strings, so EstimateSizeBytes resolves each id's
// byte length through a WireNames table — traffic metrics are identical to a
// string-carrying encoding.
//
// Message payload lists are SmallVectors with inline capacities chosen from
// the paper's workload shape, so a typical message is one contiguous value
// with zero owned heap blocks — which is what lets the event queue hold a
// by-value message closure entirely inline (sim/event_queue.h). The
// capacities are a size/latency trade, not a limit: longer lists spill to
// the heap and everything still works.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/small_vector.h"
#include "common/types.h"
#include "common/wire_names.h"

namespace locaware::overlay {

/// Query keyword sets: 1..K keywords, K small (the workload generator's
/// default caps K at 3 — paper §5.1 searches carry a few keywords).
using KeywordVec = SmallVector<KeywordId, 4>;
/// Bloom-delta positions: one filename toggles at most k·keywords ≈ 12 bits
/// (paper §4.2 footnote 1); full-state bootstraps spill.
using PositionVec = SmallVector<uint32_t, 12>;

/// A provider as carried in responses: address + locId (paper Fig. 1, the
/// "(D, 1)" entries).
struct ProviderInfo {
  PeerId peer = kInvalidPeer;
  LocId loc_id = 0;

  bool operator==(const ProviderInfo&) const = default;
};

/// Provider lists: the locId-selected subset of a cached provider list,
/// capped by ProtocolParams::max_response_providers (default 3).
using ProviderVec = SmallVector<ProviderInfo, 4>;

/// Forward-direction query. Each forwarded copy is a distinct message; the
/// payload is immutable except ttl/hops.
struct QueryMessage {
  QueryId qid = 0;
  PeerId origin = kInvalidPeer;       ///< requesting peer (peer A in Fig. 1)
  LocId origin_loc = 0;               ///< requester's locId, used to pick providers
  KeywordVec keywords;                ///< 1..K keyword ids, sorted ascending
  /// Canonical keyword-set hash (catalog::FileCatalog::CanonicalSetFnv of
  /// `keywords`), computed once at submit time so per-hop group routing is a
  /// modulo instead of a re-hash. Not charged on the wire: a receiver could
  /// recompute it from the keywords.
  uint64_t kw_set_fnv = 0;
  /// One designated member of `keywords` for single-keyword routing
  /// (Dicas-Keys): the *first sampled* query keyword, recorded before
  /// canonical sorting so the pick stays uniform over the set. Not charged
  /// on the wire (it duplicates a keyword already carried).
  KeywordId route_kw = kInvalidKeyword;
  uint32_t ttl = 7;                   ///< remaining hops (paper: starts at 7)
  uint32_t hops = 0;                  ///< hops traveled so far
};

/// One answered file inside a response.
struct ResponseRecord {
  FileId file = kInvalidFile;
  /// Known providers, most recent first. For a file-store answer this is just
  /// the responder; for an index answer it is the locId-selected subset of
  /// the cached provider list.
  ProviderVec providers;
  /// True when this record was answered from a response index (cache hit)
  /// rather than the responder's own file store.
  bool from_index = false;
};

/// Records per response: a responder usually answers with one matching file;
/// multi-record responses spill.
using RecordVec = SmallVector<ResponseRecord, 1>;

/// Backward-direction response, relayed along the reverse path.
struct ResponseMessage {
  QueryId qid = 0;
  PeerId responder = kInvalidPeer;  ///< the peer that answered
  PeerId origin = kInvalidPeer;     ///< final destination (the requester)
  LocId origin_loc = 0;             ///< copied from the query
  KeywordVec query_keywords;  ///< so cachers can match Gid/keywords
  RecordVec records;
  uint32_t hops = 0;  ///< hops traveled back so far
};

/// Locaware Bloom-filter delta gossip (one neighbor-to-neighbor hop).
struct BloomUpdateMessage {
  PeerId sender = kInvalidPeer;
  uint32_t filter_bits = 0;
  PositionVec toggled_positions;
  /// Full-state bootstrap: positions are the sender's complete advertised
  /// filter (receiver replaces its copy instead of toggling). Sent once when
  /// a repaired link completes, so the receiver's delta baseline starts
  /// consistent no matter what gossip raced the handshake.
  bool full_state = false;
};

/// RTT probe / reply used by provider selection ("it measures its RTT to the
/// set of available providers", §5.1). Probes travel the underlay directly.
struct ProbeMessage {
  PeerId prober = kInvalidPeer;
  PeerId target = kInvalidPeer;
};

// --- link-repair handshake (churn) -----------------------------------------
//
// Session churn rewires the overlay through three messages instead of direct
// cross-peer mutation, so each endpoint updates only its own adjacency when
// the message's event executes on its shard:
//
//   departure:  p clears its own half-edges and sends LinkDrop(epoch) to each
//               former neighbor; the neighbor removes its half-edge (iff the
//               stamp is <= the named epoch), invalidates response-index
//               entries naming p, and probes for a replacement if orphaned.
//   rejoin:     p sends LinkProbe to candidate peers; an online candidate
//               installs its half-edge, replies LinkAccept, and the prober
//               installs its half on receipt. Both directions carry a
//               LinkAnnounce (gid, degree hint, session epoch). Under
//               Locaware the accept also carries the acceptor's advertised
//               Bloom filter, and the prober answers with a full-state
//               BloomUpdate once the link completes.

/// The sender's self-description carried by LinkProbe/LinkAccept.
struct LinkAnnounce {
  PeerId peer = kInvalidPeer;
  GroupId gid = 0;
  /// Sender's session epoch; the receiver stamps its half-edge with this.
  uint32_t epoch = 0;
  /// Sender's degree at send time — the receiver's (stale-able) hint for
  /// degree-ranked forwarding, since remote adjacency is unreadable under
  /// partitioned ownership.
  uint32_t degree = 0;
  /// Locaware: snapshot of the sender's advertised keyword filter.
  std::optional<bloom::BloomFilter> filter;
};

/// "I am leaving": sent by a departing peer to each of its neighbors.
struct LinkDropMessage {
  PeerId from = kInvalidPeer;
  /// Epoch of the session that is ending; removes only links stamped <= it.
  uint32_t epoch = 0;
};

/// Rejoin/repair link request.
struct LinkProbeMessage {
  LinkAnnounce from;
};

/// Positive reply to a LinkProbe.
struct LinkAcceptMessage {
  LinkAnnounce from;
  /// Echo of the probe's epoch: the prober ignores accepts from probes it
  /// sent in an earlier session.
  uint32_t prober_epoch = 0;
};

// --- Chord-style DHT (src/dht/, PR 10) --------------------------------------
//
// Iterative lookups: the initiator sends every request and processes every
// response, so session state never leaves the initiator's shard. Messages
// carry the keyword *id* (interning invariant) plus the sender's session
// epoch so receivers can reject requests from ended sessions
// (ChurnTimeline::SessionEpochAt — the DeliverLinkProbe pattern).

/// What a DhtLookupMessage asks of the receiver.
enum class DhtLookupMode : uint8_t {
  kRoute = 0,         ///< "is the key yours, or who do I ask next?"
  kGetProviders = 1,  ///< "send me the records you hold for this keyword"
};

/// Which kind of session a DHT lookup serves; decides where its traffic is
/// charged (query slot vs. the global dht_store counters).
enum class DhtSessionPurpose : uint8_t {
  kQuery = 0,  ///< resolving providers for a submitted query
  kStore = 1,  ///< routing a publish to the key's owner
};

/// One iterative routing/fetch request, initiator -> queried node.
struct DhtLookupMessage {
  PeerId initiator = kInvalidPeer;
  /// Initiator's session epoch at send time; receivers drop stale sessions.
  uint32_t initiator_epoch = 0;
  uint64_t session = 0;           ///< (initiator << 32) | node-local counter
  uint64_t key = 0;               ///< ring position being resolved
  KeywordId kw = kInvalidKeyword; ///< the keyword the key was derived from
  QueryId qid = 0;                ///< meaningful iff purpose == kQuery
  DhtLookupMode mode = DhtLookupMode::kRoute;
  DhtSessionPurpose purpose = DhtSessionPurpose::kQuery;
};

/// Reply to a DhtLookupMessage, queried node -> initiator.
struct DhtResponseMessage {
  PeerId responder = kInvalidPeer;
  uint64_t session = 0;
  /// Route resolved: `next` is the key's owner. False: `next` is the next
  /// node to ask (kInvalidPeer aborts the lookup — the responder had no
  /// routing state).
  bool done = false;
  PeerId next = kInvalidPeer;
  /// kGetProviders reply payload: the owner's records for the keyword,
  /// from_index = true (they are index entries, not the responder's files).
  RecordVec records;
};

/// Install one provider record at the resolved owner, publisher -> owner.
struct DhtStoreMessage {
  PeerId publisher = kInvalidPeer;
  /// Publisher's session epoch; the owner drops stores from ended sessions.
  uint32_t publisher_epoch = 0;
  KeywordId kw = kInvalidKeyword;
  FileId file = kInvalidFile;
  ProviderInfo provider;  ///< the publisher itself (address + locId)
};

/// Estimated wire sizes in bytes, for the bandwidth metric. The constants
/// follow Gnutella 0.4 framing: 23-byte descriptor header, 4-byte IPv4 + 2-byte
/// port per address. Keyword/filename payloads are charged at the byte length
/// of their strings, resolved through `names`.
size_t EstimateSizeBytes(const QueryMessage& m, const WireNames& names);
size_t EstimateSizeBytes(const ResponseMessage& m, const WireNames& names);
size_t EstimateSizeBytes(const BloomUpdateMessage& m);
size_t EstimateSizeBytes(const ProbeMessage& m);
size_t EstimateSizeBytes(const LinkDropMessage& m);
size_t EstimateSizeBytes(const LinkProbeMessage& m);
size_t EstimateSizeBytes(const LinkAcceptMessage& m);
size_t EstimateSizeBytes(const DhtLookupMessage& m, const WireNames& names);
size_t EstimateSizeBytes(const DhtResponseMessage& m, const WireNames& names);
size_t EstimateSizeBytes(const DhtStoreMessage& m, const WireNames& names);

}  // namespace locaware::overlay
