#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/keyword_set.h"
#include "common/logging.h"
#include "core/provider_selection.h"
#include "net/landmark.h"

namespace locaware::core {

Engine::Engine(const ExperimentConfig& config)
    : config_(config), num_shards_(config.scheduler.shards), root_rng_(config.seed) {
  Rng decisions = root_rng_.Split("decisions");
  decision_seed_ = decisions.NextU64();
  Rng churn = root_rng_.Split("churn");
  churn_seed_ = churn.NextU64();
}

Result<std::unique_ptr<Engine>> Engine::Create(const ExperimentConfig& config) {
  // Normalize nested sizes from the top-level fields so callers set each
  // quantity exactly once.
  ExperimentConfig cfg = config;
  cfg.underlay.num_peers = cfg.num_peers;
  cfg.underlay.num_landmarks = cfg.num_landmarks;

  // Values the run cannot honour fail here rather than abort on a CHECK
  // later, hang, or run to completion with every query failing: a tick
  // reschedules itself one interval on, and shards beyond the peer count
  // only add empty window participants.
  const std::pair<bool, const char*> kRejected[] = {
      {cfg.num_peers == 0, "num_peers must be > 0"},
      {cfg.num_landmarks == 0, "num_landmarks must be > 0 (locIds need landmarks)"},
      {cfg.scheduler.shards == 0, "scheduler.shards must be > 0"},
      {cfg.scheduler.shards > cfg.num_peers, "scheduler.shards must be <= num_peers"},
      {cfg.params.num_groups == 0, "num_groups must be > 0"},
      {cfg.params.bloom_bits == 0, "params.bloom_bits must be > 0"},
      {cfg.params.bloom_hashes == 0 || cfg.params.bloom_hashes > 16,
       "params.bloom_hashes must be in [1, 16]"},
      {cfg.params.maintenance_interval <= 0, "params.maintenance_interval_s must be > 0"},
      {cfg.params.dht_fingers == 0, "dht.fingers must be > 0"},
      {cfg.params.ri.max_filenames == 0, "ri.max_filenames must be > 0"},
  };
  for (const auto& [rejected, why] : kRejected) {
    if (rejected) return Status::InvalidArgument(why);
  }
  LOCAWARE_RETURN_NOT_OK(ValidateProtocolParams(cfg.protocol, cfg.params));

  auto engine = std::unique_ptr<Engine>(new Engine(cfg));
  LOCAWARE_RETURN_NOT_OK(engine->Setup());
  return engine;
}

Status Engine::Setup() {
  // 1. Underlay (physical network + landmarks).
  Rng underlay_rng = root_rng_.Split("underlay");
  if (config_.use_uniform_underlay) {
    net::UniformUnderlayConfig ucfg;
    ucfg.num_peers = config_.num_peers;
    ucfg.num_landmarks = config_.num_landmarks;
    ucfg.min_rtt_ms = config_.underlay.min_rtt_ms;
    ucfg.max_rtt_ms = config_.underlay.max_rtt_ms;
    auto built = net::UniformUnderlay::Build(ucfg, &underlay_rng);
    if (!built.ok()) return built.status();
    underlay_ = std::move(built).ValueOrDie();
  } else {
    auto built = net::GeometricUnderlay::Build(config_.underlay, &underlay_rng);
    if (!built.ok()) return built.status();
    underlay_ = std::move(built).ValueOrDie();
  }
  const std::vector<LocId> loc_ids = net::ComputeAllLocIds(*underlay_);

  // 2. Catalog + workload + initial shared files. Before the shard placement
  // on purpose: the clustered strategy weighs peers by the workload's
  // requester histogram. RNG splits are name-keyed and leave the root
  // untouched, so this reordering changes no stream.
  Rng catalog_rng = root_rng_.Split("catalog");
  auto built_catalog = catalog::FileCatalog::Generate(config_.catalog, &catalog_rng);
  if (!built_catalog.ok()) return built_catalog.status();
  catalog_ = std::move(built_catalog).ValueOrDie();

  if (!config_.trace_path.empty()) {
    // Either trace format (text or binary), sniffed by magic.
    auto loaded = catalog::QueryWorkload::LoadAuto(config_.trace_path, &catalog_);
    if (!loaded.ok()) return loaded.status();
    workload_ = std::move(loaded).ValueOrDie();
    // A trace written against a different universe must not index out of
    // bounds silently.
    for (const catalog::QueryEvent& ev : workload_.queries()) {
      if (ev.requester >= config_.num_peers) {
        return Status::InvalidArgument("trace requester exceeds num_peers");
      }
      if (ev.target >= catalog_.num_files()) {
        return Status::InvalidArgument("trace target exceeds catalog size");
      }
    }
  } else {
    Rng workload_rng = root_rng_.Split("workload");
    auto built_workload = catalog::QueryWorkload::Generate(
        config_.workload, catalog_, config_.num_peers, &workload_rng);
    if (!built_workload.ok()) return built_workload.status();
    workload_ = std::move(built_workload).ValueOrDie();
  }

  Rng placement_rng = root_rng_.Split("placement");
  const auto initial_files = catalog::AssignInitialFiles(
      config_.num_peers, config_.files_per_peer, catalog_, &placement_rng);

  // 3. Peer → shard placement: the immutable map every shard_of consumer
  // (ownership asserts, event scheduling, query tracks, churn owner events,
  // metrics merge) reads for the rest of the run.
  {
    std::vector<size_t> peer_location(config_.num_peers);
    for (PeerId p = 0; p < config_.num_peers; ++p) {
      peer_location[p] = underlay_->LocationOf(p);
    }
    if (config_.scheduler.placement == sim::PlacementStrategy::kClustered) {
      // Expected per-peer load: 1 (baseline liveness/maintenance) + the
      // peer's query count — deterministic integer weights.
      std::vector<uint64_t> peer_weight(config_.num_peers, 1);
      for (const catalog::QueryEvent& ev : workload_.queries()) {
        ++peer_weight[ev.requester];
      }
      placement_ = sim::ShardPlacement::Clustered(
          num_shards_, peer_location, peer_weight, [this](size_t a, size_t b) {
            return underlay_->PairRttLowerBoundMs(a, b);
          });
    } else {
      placement_ = sim::ShardPlacement::Modulo(num_shards_, peer_location);
    }
  }

  // 3b. The simulator. The scalar lookahead floor is half the underlay's
  // minimum distinct-pair RTT: no cross-shard message can arrive sooner, so
  // every shard may safely run that far past the global minimum event time.
  // On top of it, each shard *pair* gets a tighter bound from the underlay's
  // locality structure (BuildLookaheadMatrix over the placement's location
  // digests), so shards whose peers are all far apart synchronize far less
  // often than the global min would force.
  const sim::SimTime lookahead = sim::FromMs(underlay_->MinPairRttMs() / 2.0);
  if (num_shards_ > 1) {
    if (lookahead <= 0) {
      return Status::InvalidArgument(
          "underlay cannot bound its minimum link latency; shards > 1 needs a "
          "positive conservative lookahead");
    }
    if (config_.params.query_deadline < lookahead) {
      return Status::InvalidArgument(
          "query_deadline below the cross-shard lookahead; cleanup events "
          "would violate the conservative window");
    }
  }
  sim::ShardedSimulatorConfig sim_cfg;
  sim_cfg.num_shards = num_shards_;
  sim_cfg.num_workers = config_.scheduler.workers;
  if (num_shards_ > 1) {
    sim_cfg.lookahead_matrix = BuildLookaheadMatrix(lookahead);
  }
  sim_cfg.num_sources = static_cast<sim::SourceId>(config_.num_peers) + 1;
  sim_ = std::make_unique<sim::ShardedSimulator>(sim_cfg);
  shards_.resize(num_shards_);

  // 3c. Overlay.
  Rng overlay_rng = root_rng_.Split("overlay");
  overlay::OverlayConfig ocfg;
  ocfg.num_peers = config_.num_peers;
  ocfg.avg_degree = config_.avg_degree;
  auto built_graph = overlay::OverlayGraph::Generate(ocfg, &overlay_rng);
  if (!built_graph.ok()) return built_graph.status();
  graph_ = std::make_unique<overlay::OverlayGraph>(std::move(built_graph).ValueOrDie());

  // 4. Nodes; the protocol allocates the per-peer state it uses.
  protocol_ = MakeProtocol(config_.protocol, config_.params);
  Rng gid_rng = root_rng_.Split("gids");
  nodes_.resize(config_.num_peers);
  maintenance_quiet_.resize(config_.num_peers);
  for (PeerId p = 0; p < config_.num_peers; ++p) {
    NodeState& n = nodes_[p];
    n.id = p;
    n.loc_id = loc_ids[p];
    n.gid = static_cast<GroupId>(gid_rng.UniformInt(0, config_.params.num_groups - 1));
    n.file_store.assign(initial_files[p].begin(), initial_files[p].end());
    protocol_->InitNodeState(n, config_.seed);
    maintenance_quiet_[p] = protocol_->MaintenanceIdle(n) ? 1 : 0;
  }

  // 5. Churn. The whole on/off schedule is precomputed from stable
  // per-(peer, cycle) streams; transitions execute as owner-shard events and
  // all link rewiring travels as LinkDrop/LinkProbe/LinkAccept messages, so
  // churn never touches another shard's mutable state and composes with any
  // shard count.
  auto churn = overlay::ChurnModel::Create(config_.churn);
  if (!churn.ok()) return churn.status();
  churn_model_ = std::move(churn).ValueOrDie();
  if (config_.churn.enabled) {
    graph_->SetPartitionedOwnership(num_shards_, placement_.owner_map());
    churn_timeline_ = overlay::ChurnTimeline::Build(churn_model_, churn_seed_,
                                                    config_.num_peers, RunHorizon());
    // Seed the degree hints the initial handshakes would have announced; the
    // static graph is still consistent here, so these start exact.
    for (PeerId p = 0; p < config_.num_peers; ++p) {
      NodeState& n = nodes_[p];
      for (PeerId nb : graph_->Neighbors(p)) {
        n.neighbor_degree[nb] = static_cast<uint32_t>(graph_->Degree(nb));
      }
    }
    ScheduleChurnTimeline();
  }

  // 5b. Protocol setup that needs the finished engine (Locaware's set-up
  // filter exchange, the DHT plane's ring and initial routing tables).
  protocol_->OnSetupComplete(*this);

  // 6. Periodic maintenance (index expiry; Locaware Bloom gossip; DHT
  // republish; under churn, orphan re-attachment — a lone probe lost to a
  // mid-flight departure must not strand a peer at degree 0 for its whole
  // session).
  // Start ticks are staggered so 1000 nodes do not fire in the same
  // microsecond. The initial ticks come from the controller source; every
  // re-armed tick is keyed by the node itself, keeping the tick chain's
  // tie-break order shard-count-invariant.
  //
  // Each peer has exactly one tick in flight: a [this, p] TickFn waiting on
  // its shard's tick lane, which is reserved here to the shard's peer count
  // so Run never grows it. The lane appends a tick whose key is not below
  // its tail, so the initial ticks are scheduled in (offset, peer) order.
  // The offsets are still drawn in peer order, ties still break by peer id,
  // and the block of src-0 sequence numbers they take still sits between
  // the churn transitions' and the query submissions', so every key keeps
  // the relative order it had when the ticks were scheduled in peer order.
  if (protocol_->NeedsMaintenanceTicks() || config_.churn.enabled) {
    Rng stagger_rng = root_rng_.Split("maintenance");
    std::vector<std::pair<sim::SimTime, PeerId>> starts(config_.num_peers);
    for (PeerId p = 0; p < config_.num_peers; ++p) {
      starts[p] = {static_cast<sim::SimTime>(stagger_rng.UniformInt(
                       0, static_cast<uint64_t>(config_.params.maintenance_interval))),
                   p};
    }
    std::sort(starts.begin(), starts.end());
    const std::vector<size_t>& shard_peers = placement_.shard_peer_counts();
    for (uint32_t s = 0; s < num_shards_; ++s) sim_->ReserveTicks(s, shard_peers[s]);
    // The initial tick re-arms before working, matching the historic
    // per-source sequence order.
    for (const auto& [offset, p] : starts) {
      sim_->ScheduleTick(shard_of(p), /*src=*/0, offset, [this, p] {
        RearmMaintenanceTick(p);
        MaintenanceWork(p);
      });
    }
  }
  return Status::OK();
}

std::vector<sim::SimTime> Engine::BuildLookaheadMatrix(
    sim::SimTime scalar_lookahead) const {
  // matrix[s][d] is the min of the underlay's pairwise bounds over the cross
  // product of s's and d's location sets: the tightest claim the underlay
  // makes about that shard pair. Scanning each pair's cross product costs
  // O(K^2 * L^2) bound calls; instead, each occupied location pair is asked
  // once and folded into near[a][d] = min over d's locations b of
  // bound(a, b), and matrix[s][d] = min over s's locations a of near[a][d].
  // That is O(L^2 + L * sum |S_d|) work, and since min over finite doubles is
  // exact and order-free, the same matrix.
  const uint32_t k = num_shards_;
  const size_t num_locs = underlay_->num_locations();
  std::vector<std::vector<sim::ShardId>> shards_at(num_locs);
  for (sim::ShardId d = 0; d < k; ++d) {
    for (size_t loc : placement_.ShardLocations(d)) shards_at[loc].push_back(d);
  }
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> near(num_locs * k, kInf);
  for (size_t a = 0; a < num_locs; ++a) {
    if (shards_at[a].empty()) continue;
    double* near_a = &near[a * k];
    for (size_t b = 0; b < num_locs; ++b) {
      if (shards_at[b].empty()) continue;
      const double bound = underlay_->PairRttLowerBoundMs(a, b);
      for (sim::ShardId d : shards_at[b]) near_a[d] = std::min(near_a[d], bound);
    }
  }

  std::vector<sim::SimTime> matrix(static_cast<size_t>(k) * k, 0);
  for (sim::ShardId src = 0; src < k; ++src) {
    for (sim::ShardId dst = 0; dst < k; ++dst) {
      if (src == dst) continue;
      // Empty digests (a shard with no peers) cannot send, so any positive
      // bound is valid; use the scalar.
      double bound_ms = kInf;
      for (size_t a : placement_.ShardLocations(src)) {
        bound_ms = std::min(bound_ms, near[a * k + dst]);
      }
      sim::SimTime la = std::isfinite(bound_ms) ? sim::FromMs(bound_ms / 2.0)
                                                : scalar_lookahead;
      // Never looser than the scalar floor; never beyond the query deadline,
      // so deadline-delayed cross-shard cleanup events always clear the
      // destination's window. Clamping down only narrows windows — still a
      // valid conservative bound.
      la = std::max(la, scalar_lookahead);
      la = std::min(la, config_.params.query_deadline);
      matrix[static_cast<size_t>(src) * k + dst] = la;
    }
  }
  return matrix;
}

void Engine::CheckOwner(PeerId p) const {
  LOCAWARE_CHECK_LT(p, nodes_.size());
  if (num_shards_ > 1) {
    // Shard-local ownership: inside a parallel run, mutable node state may
    // only be touched by the shard the peer lives on. Remote immutable facts
    // go through gid_of/loc_of instead.
    const sim::ShardId cur = sim::ShardedSimulator::current_shard();
    if (cur != sim::kNoShard) {
      LOCAWARE_CHECK_EQ(cur, shard_of(p)) << "cross-shard mutable node access";
    }
  }
}

NodeState& Engine::node(PeerId p) {
  CheckOwner(p);
  return nodes_[p];
}

const NodeState& Engine::node(PeerId p) const {
  LOCAWARE_CHECK_LT(p, nodes_.size());
  return nodes_[p];
}

LocId Engine::loc_of(PeerId p) const { return node(p).loc_id; }

GroupId Engine::gid_of(PeerId p) const { return node(p).gid; }

Rng Engine::DecisionRng(uint64_t domain, uint64_t a, uint64_t b) const {
  uint64_t x = decision_seed_;
  x = Mix64(x ^ (domain * 0x9e3779b97f4a7c15ULL));
  x = Mix64(x ^ a);
  x = Mix64(x ^ b);
  return Rng(x);
}

size_t Engine::pending_query_count() const {
  size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.pending.size();
  return total;
}

size_t Engine::tracked_query_count() const {
  size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.tracks.size();
  return total;
}

sim::SimTime Engine::OneWayDelay(PeerId a, PeerId b) const {
  return sim::FromMs(underlay_->RttMs(a, b) / 2.0);
}

void Engine::ScheduleFromNode(PeerId src, PeerId dst, sim::SimTime delay,
                              sim::EventFn&& fn) {
  LOCAWARE_CHECK_GE(delay, 0);
  sim_->ScheduleAt(shard_of(dst), SourceOf(src), sim_->Now() + delay, std::move(fn));
}

void Engine::Send(PeerId from, PeerId to, sim::EventFn&& deliver) {
  ScheduleFromNode(from, to, OneWayDelay(from, to), std::move(deliver));
}

void Engine::MaintenanceWork(PeerId p) {
  if (!graph_->IsAlive(p)) return;
  CheckOwner(p);
  if (maintenance_quiet_[p] == 0) {
    protocol_->OnMaintenanceTick(*this, p);
    if (protocol_->MaintenanceIdle(nodes_[p])) maintenance_quiet_[p] = 1;
  }
  if (config_.churn.enabled && graph_->Degree(p) == 0) {
    StartLinkProbes(p, 1);
  }
}

void Engine::WakeMaintenance(PeerId p) {
  CheckOwner(p);
  if (maintenance_quiet_[p] != 0) maintenance_quiet_[p] = 0;
}

void Engine::MaintenanceTick(PeerId p) {
  MaintenanceWork(p);
  RearmMaintenanceTick(p);
}

void Engine::RearmMaintenanceTick(PeerId p) {
  sim_->ScheduleTick(shard_of(p), SourceOf(p),
                     sim_->Now() + config_.params.maintenance_interval,
                     [this, p] { MaintenanceTick(p); });
}

void Engine::Run() {
  const auto& queries = workload_.queries();
  // Pre-register every query's track in every shard. Slots equal the workload
  // index everywhere, so per-shard counter contributions line up at merge
  // time; each track is erased by that query's cleanup event, which is what
  // stops post-deadline stragglers from charging traffic.
  // Per-shard submission counts: the basis for the pending-map and event-heap
  // reserves below (known sizes, so the storm path does zero rehash/regrow).
  std::vector<size_t> submissions(num_shards_, 0);
  for (const catalog::QueryEvent& ev : queries) ++submissions[shard_of(ev.requester)];

  for (sim::ShardId s = 0; s < num_shards_; ++s) {
    ShardState& shard = shards_[s];
    shard.tracks.reserve(queries.size());
    shard.pending.reserve(submissions[s]);
    for (const catalog::QueryEvent& ev : queries) {
      const size_t slot = shard.metrics.BeginQuery(ev.id, ev.requester, ev.submit_time);
      shard.metrics.Record(slot)->target_rank = workload_.RankOfFile(ev.target);
      shard.tracks[ev.id].slot = slot;
    }
  }

  // Pre-size the event heaps: one submission event per query up front, plus
  // headroom for the per-query message churn that replaces it.
  sim_->ReserveEvents(*std::max_element(submissions.begin(), submissions.end()) + 1024);
  for (const catalog::QueryEvent& ev : queries) {
    sim_->ScheduleAt(shard_of(ev.requester), /*src=*/0, ev.submit_time,
                     [this, &ev] { SubmitQuery(ev); });
  }
  sim_->Run(RunHorizon());

  // Fold the per-shard collectors into the run-level view.
  std::vector<const metrics::MetricsCollector*> parts;
  parts.reserve(shards_.size());
  for (const ShardState& shard : shards_) parts.push_back(&shard.metrics);
  std::vector<uint32_t> origin_shard(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    origin_shard[i] = shard_of(queries[i].requester);
  }
  metrics_ = metrics::MetricsCollector::MergeShards(parts, origin_shard);

  // Scheduler counters ride along for reporting (bench counters, summary
  // tables) — they are shard/worker-dependent by nature and deliberately stay
  // out of the byte-compared metric JSON.
  const sim::SchedulerStats sched = sim_->stats();
  metrics_.SetSchedulerStats(sched.windows, sched.steals, sched.idle_ns);
}

Engine::QueryTrack* Engine::TrackOf(sim::ShardId shard, QueryId qid) {
  auto it = shards_[shard].tracks.find(qid);
  return it == shards_[shard].tracks.end() ? nullptr : &it->second;
}

overlay::RecordVec Engine::AnswerFromFileStore(
    PeerId node_id, const overlay::QueryMessage& query) {
  // Message keywords are sorted by contract (SubmitQuery canonicalizes);
  // validate once here, then use the unchecked match in the per-file loop.
  LOCAWARE_CHECK(std::is_sorted(query.keywords.begin(), query.keywords.end()));
  const uint64_t signature = KeywordSignature(query.keywords);
  overlay::RecordVec records;
  const NodeState& n = node(node_id);
  for (FileId f : n.file_store) {
    if (!catalog_.MatchesSorted(f, query.keywords, signature)) continue;
    overlay::ResponseRecord record;
    record.file = f;
    record.providers.push_back(overlay::ProviderInfo{node_id, n.loc_id});
    record.from_index = false;
    records.push_back(std::move(record));
  }
  return records;
}

void Engine::SubmitQuery(const catalog::QueryEvent& ev) {
  ShardState& shard = shards_[shard_of(ev.requester)];
  const QueryTrack* track = TrackOf(shard_of(ev.requester), ev.id);
  LOCAWARE_CHECK(track != nullptr) << "query submitted twice or never registered";
  const size_t slot = track->slot;

  if (!graph_->IsAlive(ev.requester)) {
    // Offline requester: the query is never issued. No messages exist, so
    // the local tracking entry can go immediately; remote shards hold only
    // the inert slot mapping, which the deferred cleanup sweeps so every
    // shard ends the run with zero tracked queries.
    CleanupShard(shard_of(ev.requester), ev.id);
    if (num_shards_ > 1) ScheduleCleanup(ev.requester, ev.id);
    return;
  }

  NodeState& origin = node(ev.requester);

  // Canonicalize the query's keyword ids once: sorted + deduplicated for
  // containment checks, canonical set hash for group routing.
  overlay::KeywordVec sorted_kws(ev.keywords.begin(), ev.keywords.end());
  std::sort(sorted_kws.begin(), sorted_kws.end());
  sorted_kws.erase(std::unique(sorted_kws.begin(), sorted_kws.end()),
                   sorted_kws.end());

  // A peer that already shares a matching file needs neither search nor
  // download. (sorted_kws was sorted two lines up: the unchecked match is
  // safe.)
  const uint64_t signature = KeywordSignature(sorted_kws);
  for (FileId f : origin.file_store) {
    if (catalog_.MatchesSorted(f, sorted_kws, signature)) {
      metrics::QueryRecord* record = shard.metrics.Record(slot);
      record->success = true;
      record->source = metrics::AnswerSource::kLocalStore;
      record->provider_loc_match = true;
      CleanupShard(shard_of(ev.requester), ev.id);  // nothing in flight
      if (num_shards_ > 1) ScheduleCleanup(ev.requester, ev.id);
      return;
    }
  }

  overlay::QueryMessage query;
  query.qid = ev.id;
  query.origin = ev.requester;
  query.origin_loc = origin.loc_id;
  query.kw_set_fnv = catalog_.CanonicalSetFnv(sorted_kws);
  query.route_kw = ev.keywords.front();  // sampled order: a uniform pick
  query.keywords = sorted_kws;
  query.ttl = config_.params.ttl;
  query.hops = 0;

  PendingQuery pq;
  pq.slot = slot;
  pq.requester = ev.requester;
  pq.requester_loc = origin.loc_id;
  pq.keywords = std::move(sorted_kws);
  shard.pending.try_emplace(ev.id, std::move(pq));

  // The requester's own response index may already know providers.
  overlay::RecordVec local = protocol_->AnswerFromIndex(*this, ev.requester, query);
  if (!local.empty()) {
    OfferRecords(ev.requester, ev.id, ev.requester, std::move(local), /*hops=*/0);
    FinalizeQuery(ev.requester, ev.id);
    return;
  }

  Visit(ev.requester, ev.id, kInvalidPeer);

  const size_t fanout = ForwardQuery(ev.requester, kInvalidPeer, query);
  // The protocol sees every query that left its origin unanswered — the
  // DHT-backed protocols start their iterative lookup here (pure DHT always;
  // hybrid only when the unstructured fan-out found nowhere to go).
  protocol_->OnQuerySubmitted(*this, query, fanout);
  ScheduleFromNode(ev.requester, ev.requester, config_.params.query_deadline,
                   [this, origin_id = ev.requester, qid = ev.id] {
                     FinalizeQuery(origin_id, qid);
                   });
}

size_t Engine::ForwardQuery(PeerId node_id, PeerId from,
                            const overlay::QueryMessage& msg) {
  if (msg.ttl == 0) return 0;
  const PeerVec targets = protocol_->ForwardTargets(*this, node_id, msg, from);
  if (targets.empty()) return 0;

  // Each target gets its own copy of the next hop's message, carried by value
  // inside its delivery event like every other message.
  overlay::QueryMessage next = msg;
  next.ttl -= 1;
  next.hops += 1;

  ChargeQueryTraffic(node_id, msg.qid, Traffic::kQuery,
                     EstimateSizeBytes(next, catalog_), targets.size());
  for (PeerId target : targets) {
    Send(node_id, target,
         [this, target, node_id, next] { DeliverQuery(target, node_id, next); });
  }
  return targets.size();
}

void Engine::DeliverQuery(PeerId to, PeerId from, const overlay::QueryMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // lost on a dead peer
  if (!Visit(to, msg.qid, from)) return;  // duplicate: dropped

  // Answer from the shared-file store first, then the response index
  // ("either in its file storage or in its response index", §4.2).
  overlay::RecordVec records = AnswerFromFileStore(to, msg);
  if (records.empty()) records = protocol_->AnswerFromIndex(*this, to, msg);

  const bool hit = !records.empty();
  if (hit) {
    overlay::ResponseMessage response;
    response.qid = msg.qid;
    response.responder = to;
    response.origin = msg.origin;
    response.origin_loc = msg.origin_loc;
    response.query_keywords = msg.keywords;
    response.records = std::move(records);
    SendResponse(to, from, std::move(response));
  }
  if (!hit || protocol_->ForwardAfterHit()) {
    ForwardQuery(to, from, msg);
  }
}

void Engine::SendResponse(PeerId sender, PeerId next_hop,
                          overlay::ResponseMessage msg) {
  ChargeQueryTraffic(sender, msg.qid, Traffic::kResponse,
                     EstimateSizeBytes(msg, catalog_));
  // Mutable, so the message moves into DeliverResponse (and from there into
  // the next hop's capture) instead of being copied out of a const capture;
  // the event runs once.
  Send(sender, next_hop, [this, next_hop, msg = std::move(msg)]() mutable {
    DeliverResponse(next_hop, std::move(msg));
  });
}

void Engine::ChargeQueryTraffic(PeerId at, QueryId qid, Traffic traffic, size_t bytes,
                                size_t count) {
  const QueryTrack* track = TrackOf(shard_of(at), qid);
  if (track == nullptr || track->slot == SIZE_MAX) return;
  metrics::QueryRecord* record = CollectorAt(at).Record(track->slot);
  if (traffic == Traffic::kQuery) {
    record->query_msgs += count;
    record->query_bytes += count * bytes;
  } else {
    record->response_msgs += count;
    record->response_bytes += count * bytes;
  }
}

void Engine::DeliverResponse(PeerId to, overlay::ResponseMessage msg) {
  if (!graph_->IsAlive(to)) return;  // response lost with the dead relay
  msg.hops += 1;

  // Every reverse-path peer (the requester included) may cache the passing
  // response, per the protocol's rule.
  protocol_->ObserveResponse(*this, to, msg);

  if (to == msg.origin) {
    OfferRecords(to, msg.qid, msg.responder, std::move(msg.records), msg.hops);
    return;
  }

  const QueryTrack* track = TrackOf(shard_of(to), msg.qid);
  if (track == nullptr) return;  // path lost: the query was cleaned up
  auto hop = track->visits.find(to);
  if (hop == track->visits.end()) return;
  if (hop->second.session_epoch != graph_->session_epoch(to)) return;  // lost with churn
  SendResponse(to, hop->second.upstream, std::move(msg));
}

void Engine::OfferRecords(PeerId origin, QueryId qid, PeerId responder,
                          overlay::RecordVec records, uint32_t hops) {
  ShardState& shard = shards_[shard_of(origin)];
  auto it = shard.pending.find(qid);
  if (it == shard.pending.end()) return;  // arrived after the deadline
  PendingQuery& pq = it->second;
  const uint64_t signature = KeywordSignature(pq.keywords);
  bool matched = false;
  for (overlay::ResponseRecord& rec : records) {
    // A DHT owner indexes one keyword; the query may demand several.
    if (!catalog_.MatchesSorted(rec.file, pq.keywords, signature)) continue;
    matched = true;
    pq.offers.push_back(PendingQuery::Offer{std::move(rec), responder});
  }
  if (!matched || hops == 0) return;
  metrics::QueryRecord* record = shard.metrics.Record(pq.slot);
  ++record->responses_received;
  if (record->first_response_at == 0) {
    record->first_response_at = sim_->Now();
    record->first_response_hops = hops;
  }
}

void Engine::FinalizeQuery(PeerId origin, QueryId qid) {
  ShardState& shard = shards_[shard_of(origin)];
  auto it = shard.pending.find(qid);
  if (it == shard.pending.end()) return;
  PendingQuery pq = std::move(it->second);
  shard.pending.erase(it);

  metrics::QueryRecord* record = shard.metrics.Record(pq.slot);

  // Distinct candidate providers, preserving offer order (earliest response
  // first; freshest providers first within a record). The requester itself is
  // never a candidate. Dedup is a linear scan over the list itself —
  // candidate counts are a handful (bounded by providers-per-file times
  // responders), so scanning beats a side hash set and allocates nothing.
  SmallVector<Candidate, 8> candidates;
  bool filtered_dead = false;
  for (const PendingQuery::Offer& offer : pq.offers) {
    for (const overlay::ProviderInfo& p : offer.record.providers) {
      if (p.peer == pq.requester) continue;
      const bool seen = std::any_of(
          candidates.begin(), candidates.end(),
          [&](const Candidate& c) { return c.provider == p.peer; });
      if (seen) continue;
      Candidate cand;
      cand.provider = p.peer;
      cand.loc_id = p.loc_id;
      cand.from_index = offer.record.from_index;
      cand.responder = offer.responder;
      cand.file = offer.record.file;
      candidates.push_back(cand);
    }
  }
  record->providers_offered = static_cast<uint32_t>(candidates.size());

  // A provider that has gone offline cannot serve the download (stale index).
  // Liveness comes from the immutable churn timeline: the provider may live
  // on any shard, and its mutable state is unreadable from here. Filtered
  // in place (order preserved) — no second list.
  if (config_.churn.enabled) {
    const sim::SimTime now = sim_->Now();
    Candidate* keep = candidates.begin();
    for (Candidate& c : candidates) {
      if (churn_timeline_.IsOnlineAt(c.provider, now)) {
        *keep++ = std::move(c);
      } else {
        filtered_dead = true;
        shard.metrics.AddStaleProviderHit();
      }
    }
    candidates.erase(keep, candidates.end());
  }

  if (candidates.empty()) {
    if (filtered_dead) shard.metrics.AddStaleFailure();
    ScheduleCleanup(origin, qid);
    return;  // record stays a failure
  }

  const SelectionStrategy strategy =
      config_.params.selection.value_or(protocol_->DefaultSelection());
  // Selection randomness is keyed by the query id: order-independent, so the
  // chosen provider cannot drift with shard count or event interleaving.
  Rng selection_rng = DecisionRng(kDecisionSelection, qid);
  const SelectionOutcome outcome = SelectProvider(
      strategy, candidates, pq.requester, pq.requester_loc, *underlay_, &selection_rng);
  record->probe_msgs += outcome.probe_msgs;
  record->probe_bytes += outcome.probe_msgs * EstimateSizeBytes(overlay::ProbeMessage{});

  const Candidate& chosen = candidates[outcome.chosen];
  record->success = true;
  if (chosen.responder == pq.requester) {
    record->source = metrics::AnswerSource::kLocalIndex;
  } else if (chosen.from_index) {
    record->source = metrics::AnswerSource::kResponseIndex;
  } else {
    record->source = metrics::AnswerSource::kFileStore;
  }
  record->download_distance_ms = underlay_->RttMs(pq.requester, chosen.provider);
  record->provider_loc_match = (loc_of(chosen.provider) == pq.requester_loc);

  // Natural replication (§3.1): the requester downloads the file and shares
  // it from now on.
  if (chosen.file != kInvalidFile) {
    NodeState& requester = node(pq.requester);
    if (!requester.SharesFile(chosen.file)) requester.file_store.push_back(chosen.file);
  }

  ScheduleCleanup(origin, qid);
}

void Engine::ScheduleCleanup(PeerId origin, QueryId qid) {
  // One event per shard: each shard erases its own peers' tracking state, at
  // the same instant a sequential run would. The deadline dwarfs the
  // lookahead (Create checks), so the cross-shard sends are always legal.
  const sim::SimTime at = sim_->Now() + config_.params.query_deadline;
  for (sim::ShardId s = 0; s < num_shards_; ++s) {
    sim_->ScheduleAt(s, SourceOf(origin), at,
                     [this, s, qid] { CleanupShard(s, qid); });
  }
}

bool Engine::Visit(PeerId p, QueryId qid, PeerId upstream) {
  FlatMap<PeerId, Hop>& visits = shards_[shard_of(p)].tracks[qid].visits;
  const Hop hop{upstream, graph_->session_epoch(p)};
  auto [visit, first] = visits.try_emplace(p, hop);
  if (first) return true;
  if (visit->second.session_epoch == hop.session_epoch) return false;
  visit->second = hop;  // last seen in a session that has since ended
  return true;
}

void Engine::CleanupShard(sim::ShardId shard_id, QueryId qid) {
  shards_[shard_id].tracks.erase(qid);
}

void Engine::SendBloomUpdate(PeerId from, PeerId to,
                             overlay::BloomUpdateMessage update) {
  CollectorAt(from).AddBloomUpdate(1, EstimateSizeBytes(update));
  Send(from, to, [this, to, update = std::move(update)] {
    if (!graph_->IsAlive(to)) return;
    protocol_->OnBloomUpdate(*this, to, update);
  });
}

sim::SimTime Engine::RunHorizon() const {
  const auto& queries = workload_.queries();
  if (queries.empty()) return 0;
  return queries.back().submit_time + 2 * config_.params.query_deadline +
         sim::kSecond;
}

void Engine::ScheduleChurnTimeline() {
  const sim::SimTime horizon = RunHorizon();
  for (PeerId p = 0; p < config_.num_peers; ++p) {
    const std::vector<sim::SimTime>& trans = churn_timeline_.transitions(p);
    for (size_t i = 0; i < trans.size(); ++i) {
      if (trans[i] > horizon) break;
      if (i % 2 == 0) {
        sim_->ScheduleAt(shard_of(p), /*src=*/0, trans[i],
                         [this, p] { HandleDeparture(p); });
      } else {
        sim_->ScheduleAt(shard_of(p), /*src=*/0, trans[i],
                         [this, p] { HandleRejoin(p); });
      }
    }
  }
}

void Engine::HandleDeparture(PeerId p) {
  LOCAWARE_CHECK(graph_->IsAlive(p)) << "departure of offline peer " << p;
  CollectorAt(p).AddChurnEvent();

  // Drop only our own half of each link; the neighbors dissolve theirs when
  // the LinkDrop lands (and tolerate forwarding to us in the meantime — the
  // delivery guards drop messages at dead peers).
  const uint32_t ending_epoch = graph_->session_epoch(p);
  const std::vector<PeerId> dropped = graph_->GoOffline(p);
  for (PeerId nb : dropped) {
    overlay::LinkDropMessage msg{p, ending_epoch};
    CollectorAt(p).AddRepairTraffic(1, EstimateSizeBytes(msg));
    Send(p, nb, [this, nb, msg] { DeliverLinkDrop(nb, msg); });
  }

  // Session state dies with the session (query visits lapse with its epoch);
  // the response index survives on disk (entries age out through entry_ttl).
  NodeState& n = node(p);
  n.neighbor_filters.clear();
  n.neighbor_degree.clear();
  protocol_->OnDeparture(*this, p);
}

void Engine::HandleRejoin(PeerId p) {
  LOCAWARE_CHECK(!graph_->IsAlive(p)) << "rejoin of online peer " << p;
  CollectorAt(p).AddChurnEvent();
  graph_->GoOnline(p);  // fresh session epoch
  StartLinkProbes(p, config_.churn.rejoin_links);
  protocol_->OnRejoin(*this, p);
}

overlay::LinkAnnounce Engine::MakeAnnounce(PeerId p, bool with_filter) {
  NodeState& n = node(p);
  overlay::LinkAnnounce announce;
  announce.peer = p;
  announce.gid = n.gid;
  announce.epoch = graph_->session_epoch(p);
  announce.degree = static_cast<uint32_t>(graph_->Degree(p));
  if (with_filter && n.advertised_filter != nullptr) {
    announce.filter = *n.advertised_filter;
  }
  return announce;
}

void Engine::StartLinkProbes(PeerId p, size_t want) {
  NodeState& n = node(p);
  // One stream per probe round, keyed by (p, round). The round counter lives
  // on p and advances in p's event order, which is shard-count invariant.
  Rng rng = DecisionRng(kDecisionChurnLink, p, n.link_round++);
  const uint64_t num_peers = nodes_.size();
  std::vector<PeerId> picked;
  size_t attempts = 0;
  const size_t max_attempts = 100 * want + 100;
  while (picked.size() < want && attempts < max_attempts) {
    ++attempts;
    const PeerId cand = static_cast<PeerId>(rng.UniformInt(0, num_peers - 1));
    if (cand == p || graph_->HasHalfLink(p, cand)) continue;
    if (std::find(picked.begin(), picked.end(), cand) != picked.end()) continue;
    // The bootstrap directory only hands out currently-online peers. The
    // timeline is immutable, so this is a legal any-shard read — and the
    // candidate may still be gone by the time the probe lands.
    if (!churn_timeline_.IsOnlineAt(cand, sim_->Now())) continue;
    picked.push_back(cand);
  }
  for (PeerId cand : picked) {
    overlay::LinkProbeMessage msg{MakeAnnounce(p, /*with_filter=*/false)};
    CollectorAt(p).AddRepairTraffic(1, EstimateSizeBytes(msg));
    Send(p, cand, [this, cand, msg = std::move(msg)] { DeliverLinkProbe(cand, msg); });
  }
}

void Engine::DeliverLinkDrop(PeerId to, const overlay::LinkDropMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // lost on a dead peer
  if (!graph_->RemoveHalfLink(to, msg.from, msg.epoch)) return;  // stale drop
  node(to).neighbor_degree.erase(msg.from);
  protocol_->OnPeerDeparted(*this, to, msg.from);
  // Orphans re-attach to keep the overlay usable.
  if (graph_->Degree(to) == 0) StartLinkProbes(to, 1);
}

void Engine::DeliverLinkProbe(PeerId to, const overlay::LinkProbeMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // probe lost on a dead peer
  const PeerId prober = msg.from.peer;
  // A prober whose session already ended (it left, or left and rejoined,
  // while the probe was in flight) will never act on our accept — its rejoin
  // starts a fresh epoch that rejects the echo. Model the handshake timing
  // out rather than install a half-link its other side can never match. (The
  // prober can still die while the accept is in flight — that ms-scale race
  // leaves a dangling half-edge here that degrades to wasted forwards until
  // our own departure or the prober's next probe refreshes it; real overlays
  // carry exactly this staleness.)
  if (!churn_timeline_.IsOnlineAt(prober, sim_->Now()) ||
      churn_timeline_.SessionEpochAt(prober, sim_->Now()) != msg.from.epoch) {
    return;
  }
  graph_->AddHalfLink(to, prober, msg.from.epoch);
  node(to).neighbor_degree[prober] = msg.from.degree;
  protocol_->OnNeighborUp(*this, to, msg.from);
  overlay::LinkAcceptMessage reply{MakeAnnounce(to, /*with_filter=*/true),
                                   msg.from.epoch};
  CollectorAt(to).AddRepairTraffic(1, EstimateSizeBytes(reply));
  Send(to, prober,
       [this, prober, reply = std::move(reply)] { DeliverLinkAccept(prober, reply); });
}

void Engine::DeliverLinkAccept(PeerId to, const overlay::LinkAcceptMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // we left again; accept arrives too late
  if (msg.prober_epoch != graph_->session_epoch(to)) return;  // stale session
  // The acceptor may have departed — or departed and rejoined under a fresh
  // epoch — while the accept was in flight (its LinkDrop could even arrive
  // first); skip acceptors whose accepting session is over.
  if (!churn_timeline_.IsOnlineAt(msg.from.peer, sim_->Now()) ||
      churn_timeline_.SessionEpochAt(msg.from.peer, sim_->Now()) !=
          msg.from.epoch) {
    return;
  }
  graph_->AddHalfLink(to, msg.from.peer, msg.from.epoch);
  node(to).neighbor_degree[msg.from.peer] = msg.from.degree;
  protocol_->OnNeighborUp(*this, to, msg.from);
}

size_t Engine::NeighborDegree(PeerId self, PeerId neighbor) {
  if (!config_.churn.enabled) return graph_->Degree(neighbor);
  const NodeState& n = node(self);
  auto it = n.neighbor_degree.find(neighbor);
  return it == n.neighbor_degree.end() ? 0 : static_cast<size_t>(it->second);
}

}  // namespace locaware::core
