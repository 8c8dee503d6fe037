#include "core/dht_plane.h"

#include <algorithm>
#include <vector>

#include "core/engine.h"
#include "dht/routing.h"

namespace locaware::core {

namespace {

/// Per-(keyword, file) provider cap in an owner's store: bounds store growth
/// the way ri.max_providers_per_file bounds the unstructured index.
constexpr size_t kMaxStoredProvidersPerFile = 8;

/// Routing-loop circuit breaker. A consistent 2^64 ring resolves in at most
/// 64 halvings; anything past that is repair lag chasing its own tail.
constexpr uint32_t kMaxLookupHops = 64;

/// True when `peer`'s session `epoch` has ended by now (it left, or left and
/// rejoined under a fresh epoch). Always false without churn.
bool SessionEnded(const Engine& engine, PeerId peer, uint32_t epoch) {
  if (!engine.config().churn.enabled) return false;
  const overlay::ChurnTimeline& timeline = engine.churn_timeline();
  const sim::SimTime now = engine.Now();
  return !timeline.IsOnlineAt(peer, now) || timeline.SessionEpochAt(peer, now) != epoch;
}

/// Registers `st` as a new lookup session of `initiator` and returns its id.
/// Ids combine the initiator with a node-local counter advancing in
/// node-local event order — shard-count invariant, never reused (the counter
/// survives departures).
uint64_t OpenSession(dht::RoutingState& rt, PeerId initiator,
                     const dht::LookupState& st) {
  const uint64_t session =
      (static_cast<uint64_t>(initiator) << 32) | (rt.next_session++ & 0xffffffffULL);
  rt.lookups.try_emplace(session, st);
  return session;
}

}  // namespace

void DhtPlane::InitNodeState(NodeState& node) {
  node.dht = std::make_unique<dht::RoutingState>();
}

void DhtPlane::Build(Engine& engine) {
  const ExperimentConfig& config = engine.config();
  ring_ = dht::Ring::Build(config.num_peers);
  const auto online_at_start = [&](PeerId c) {
    return !config.churn.enabled || engine.churn_timeline().IsOnlineAt(c, 0);
  };
  for (PeerId p = 0; p < config.num_peers; ++p) {
    dht::ComputeTables(ring_, p, config.params.dht_successors, config.params.dht_fingers,
                       online_at_start, engine.node(p).dht.get());
  }
}

void DhtPlane::StartQueryLookup(Engine& engine, const overlay::QueryMessage& query,
                                bool count_as_escalation) {
  const PeerId origin = query.origin;
  dht::RoutingState& rt = *engine.node(origin).dht;
  metrics::MetricsCollector& collector = engine.CollectorAt(origin);
  if (count_as_escalation) collector.AddHybridEscalation();
  collector.AddDhtLookup();

  const dht::RingId key = dht::RingIdOfKey(engine.catalog().KeywordFnv(query.route_kw));
  const dht::HopDecision hd = dht::NextHop(rt, origin, key);
  if (hd.done && hd.next == kInvalidPeer) {
    // Alone on the ring: the origin owns every key. No wire traffic.
    ServeFromOwnStore(engine, origin, query.route_kw, query.qid);
    collector.AddDhtHops(0);
    return;
  }

  dht::LookupState st;
  st.purpose = dht::LookupState::Purpose::kQuery;
  st.qid = query.qid;
  st.kw = query.route_kw;
  st.key = key;
  st.asked = hd.next;
  st.fetching = hd.done;  // owner already known: go straight to the fetch
  st.hops = 1;
  st.started_at = engine.Now();
  SendLookup(engine, origin, OpenSession(rt, origin, st), st);
}

void DhtPlane::StartStore(Engine& engine, PeerId publisher, KeywordId kw, FileId file) {
  dht::RoutingState& rt = *engine.node(publisher).dht;
  const dht::RingId key = dht::RingIdOfKey(engine.catalog().KeywordFnv(kw));
  const dht::HopDecision hd = dht::NextHop(rt, publisher, key);
  if (hd.done && hd.next == kInvalidPeer) {
    // Alone: every key is ours.
    StoreLocal(engine, publisher, kw, file,
               overlay::ProviderInfo{publisher, engine.node(publisher).loc_id});
    return;
  }
  if (hd.done) {
    // The owner is our direct successor: skip the routing session.
    SendStore(engine, publisher, hd.next, kw, file);
    return;
  }
  dht::LookupState st;
  st.purpose = dht::LookupState::Purpose::kStore;
  st.kw = kw;
  st.file = file;
  st.key = key;
  st.asked = hd.next;
  st.hops = 1;
  st.started_at = engine.Now();
  SendLookup(engine, publisher, OpenSession(rt, publisher, st), st);
}

void DhtPlane::SendLookup(Engine& engine, PeerId initiator, uint64_t session,
                          const dht::LookupState& st) {
  overlay::DhtLookupMessage msg;
  msg.initiator = initiator;
  msg.initiator_epoch = engine.graph().session_epoch(initiator);
  msg.session = session;
  msg.key = st.key;
  msg.kw = st.kw;
  msg.qid = st.qid;
  msg.mode = st.fetching ? overlay::DhtLookupMode::kGetProviders
                         : overlay::DhtLookupMode::kRoute;
  msg.purpose = st.purpose == dht::LookupState::Purpose::kQuery
                    ? overlay::DhtSessionPurpose::kQuery
                    : overlay::DhtSessionPurpose::kStore;

  // Query-driven lookup traffic is search traffic, charged to the query's
  // slot like forwarded query copies; publish routing is maintenance,
  // charged to the global dht_store counters.
  const size_t bytes = EstimateSizeBytes(msg, engine.catalog());
  if (st.purpose == dht::LookupState::Purpose::kQuery) {
    engine.ChargeQueryTraffic(initiator, st.qid, Engine::Traffic::kQuery, bytes);
  } else {
    engine.CollectorAt(initiator).AddDhtStoreTraffic(1, bytes);
  }
  const PeerId to = st.asked;
  engine.Send(initiator, to,
              [this, &engine, to, msg] { DeliverLookup(engine, to, msg); });
}

void DhtPlane::SendStore(Engine& engine, PeerId publisher, PeerId owner, KeywordId kw,
                         FileId file) {
  overlay::DhtStoreMessage store;
  store.publisher = publisher;
  store.publisher_epoch = engine.graph().session_epoch(publisher);
  store.kw = kw;
  store.file = file;
  store.provider = overlay::ProviderInfo{publisher, engine.node(publisher).loc_id};
  engine.CollectorAt(publisher).AddDhtStoreTraffic(
      1, EstimateSizeBytes(store, engine.catalog()));
  engine.Send(publisher, owner,
              [this, &engine, owner, store] { DeliverStore(engine, owner, store); });
}

void DhtPlane::DeliverLookup(Engine& engine, PeerId to,
                             const overlay::DhtLookupMessage& msg) {
  if (!engine.graph().IsAlive(to)) return;  // lost on a dead peer
  // Reject requests from ended sessions (the DeliverLinkProbe pattern): the
  // initiator's lookup state died with its session, and a rejoin's fresh
  // epoch must not resurrect stale traffic.
  if (SessionEnded(engine, msg.initiator, msg.initiator_epoch)) return;
  dht::RoutingState& rt = *engine.node(to).dht;

  overlay::DhtResponseMessage reply;
  reply.responder = to;
  reply.session = msg.session;
  if (msg.mode == overlay::DhtLookupMode::kGetProviders) {
    reply.done = true;
    reply.next = to;
    auto stored = rt.store.find(msg.kw);
    if (stored != rt.store.end()) {
      // Group the (insertion-ordered, node-local) list by file, capping each
      // record's provider list like the unstructured response path does.
      const sim::SimTime now = engine.Now();
      for (const dht::StoredProvider& sp : stored->second) {
        if (sp.expires_at <= now) continue;
        overlay::ResponseRecord* rec = nullptr;
        for (overlay::ResponseRecord& r : reply.records) {
          if (r.file == sp.file) {
            rec = &r;
            break;
          }
        }
        if (rec == nullptr) {
          overlay::ResponseRecord fresh;
          fresh.file = sp.file;
          fresh.from_index = true;
          reply.records.push_back(std::move(fresh));
          rec = &reply.records.back();
        }
        if (rec->providers.size() < engine.params().max_response_providers) {
          rec->providers.push_back(overlay::ProviderInfo{sp.provider, sp.loc_id});
        }
      }
    }
  } else {
    const dht::HopDecision hd = dht::NextHop(rt, to, msg.key);
    reply.done = hd.done;
    // NextHop's "done with no successor" means the queried node is alone and
    // owns everything — name it as the owner rather than abort the lookup.
    reply.next = (hd.done && hd.next == kInvalidPeer) ? to : hd.next;
  }

  // The route replies are search traffic too; the final records reply is a
  // response (so a DHT-answered query satisfies the response-accounting
  // invariants exactly like a cache hit).
  const size_t bytes = EstimateSizeBytes(reply, engine.catalog());
  if (msg.purpose == overlay::DhtSessionPurpose::kQuery) {
    const auto traffic = msg.mode == overlay::DhtLookupMode::kGetProviders
                             ? Engine::Traffic::kResponse
                             : Engine::Traffic::kQuery;
    engine.ChargeQueryTraffic(to, msg.qid, traffic, bytes);
  } else {
    engine.CollectorAt(to).AddDhtStoreTraffic(1, bytes);
  }
  const PeerId initiator = msg.initiator;
  // Mutable, so the reply moves into DeliverResponse instead of being
  // copied out of a const capture; the event runs once.
  engine.Send(to, initiator,
              [this, &engine, initiator, reply = std::move(reply)]() mutable {
                DeliverResponse(engine, initiator, std::move(reply));
              });
}

void DhtPlane::DeliverResponse(Engine& engine, PeerId to,
                               overlay::DhtResponseMessage msg) {
  if (!engine.graph().IsAlive(to)) return;  // initiator left; its sessions died
  dht::RoutingState& rt = *engine.node(to).dht;
  auto it = rt.lookups.find(msg.session);
  if (it == rt.lookups.end()) return;  // expired or already completed
  dht::LookupState& st = it->second;

  if (st.fetching) {
    // Final fetch completed: the owner indexes one keyword, the pending
    // query keeps the records matching all of its keywords.
    engine.OfferRecords(to, st.qid, msg.responder, std::move(msg.records), st.hops);
    engine.CollectorAt(to).AddDhtHops(st.hops);
    rt.lookups.erase(msg.session);
    return;
  }

  if (!msg.done) {
    // No progress (the responder had no better candidate, or we are looping)
    // is a dead end: drop the session. Query failures surface at the
    // deadline; store routes retry at the next republish.
    if (msg.next == kInvalidPeer || msg.next == st.asked ||
        st.hops >= kMaxLookupHops) {
      rt.lookups.erase(msg.session);
      return;
    }
    st.asked = msg.next;
    ++st.hops;
    SendLookup(engine, to, msg.session, st);
    return;
  }

  const PeerId owner = msg.next;
  if (st.purpose == dht::LookupState::Purpose::kQuery) {
    if (owner == to) {
      ServeFromOwnStore(engine, to, st.kw, st.qid);
      engine.CollectorAt(to).AddDhtHops(st.hops);
      rt.lookups.erase(msg.session);
      return;
    }
    st.asked = owner;
    st.fetching = true;
    ++st.hops;
    SendLookup(engine, to, msg.session, st);
    return;
  }

  // Store purpose: install at the resolved owner and finish the session.
  if (owner == to) {
    StoreLocal(engine, to, st.kw, st.file,
               overlay::ProviderInfo{to, engine.node(to).loc_id});
  } else {
    SendStore(engine, to, owner, st.kw, st.file);
  }
  rt.lookups.erase(msg.session);
}

void DhtPlane::DeliverStore(Engine& engine, PeerId to,
                            const overlay::DhtStoreMessage& msg) {
  if (!engine.graph().IsAlive(to)) return;  // lost on a dead owner
  // A store from an ended session is stale by definition; the publisher's
  // rejoin republishes everything it still shares.
  if (SessionEnded(engine, msg.publisher, msg.publisher_epoch)) return;
  StoreLocal(engine, to, msg.kw, msg.file, msg.provider);
}

void DhtPlane::StoreLocal(Engine& engine, PeerId owner, KeywordId kw, FileId file,
                          const overlay::ProviderInfo& provider) {
  dht::RoutingState& rt = *engine.node(owner).dht;
  dht::StoreList& list = rt.store[kw];
  const sim::SimTime expires = engine.Now() + 2 * engine.params().dht_republish_interval;
  size_t same_file = 0;
  for (dht::StoredProvider& sp : list) {
    if (sp.file != file) continue;
    if (sp.provider == provider.peer) {
      sp.expires_at = expires;  // re-publish refreshes the TTL
      sp.loc_id = provider.loc_id;
      return;
    }
    ++same_file;
  }
  if (same_file >= kMaxStoredProvidersPerFile) return;
  list.push_back(dht::StoredProvider{file, provider.peer, provider.loc_id, expires});
}

void DhtPlane::ServeFromOwnStore(Engine& engine, PeerId initiator, KeywordId kw,
                                 QueryId qid) {
  const dht::RoutingState& rt = *engine.node(initiator).dht;
  auto stored = rt.store.find(kw);
  if (stored == rt.store.end()) return;
  overlay::RecordVec records;
  const sim::SimTime now = engine.Now();
  for (const dht::StoredProvider& sp : stored->second) {
    if (sp.expires_at <= now) continue;
    overlay::ResponseRecord rec;
    rec.file = sp.file;
    rec.from_index = true;
    rec.providers.push_back(overlay::ProviderInfo{sp.provider, sp.loc_id});
    records.push_back(std::move(rec));
  }
  // Zero hops: nothing crossed the wire, matching the local-index path.
  engine.OfferRecords(initiator, qid, initiator, std::move(records), /*hops=*/0);
}

void DhtPlane::OnMaintenanceTick(Engine& engine, PeerId p) {
  dht::RoutingState& rt = *engine.node(p).dht;
  if (engine.config().churn.enabled) Stabilize(engine, p);

  const sim::SimTime now = engine.Now();
  // Sentinel check first: Now() - kNeverPublished would overflow.
  if (rt.last_publish == dht::kNeverPublished ||
      now - rt.last_publish >= engine.params().dht_republish_interval) {
    rt.last_publish = now;
    Publish(engine, p);
  }

  // Expire dead records. Which keys expire is content-determined, but the
  // erase pass must not run mid-iteration, and sorting keeps the erase
  // order, and so the table's layout, canonical (collect-and-sort rule).
  std::vector<KeywordId> expired_keys;
  for (const auto& slot : rt.store) {
    for (const dht::StoredProvider& sp : slot.second) {
      if (sp.expires_at <= now) {
        expired_keys.push_back(slot.first);
        break;
      }
    }
  }
  std::sort(expired_keys.begin(), expired_keys.end());
  for (KeywordId kw : expired_keys) {
    auto it = rt.store.find(kw);
    dht::StoreList& list = it->second;
    dht::StoredProvider* keep = list.begin();
    for (dht::StoredProvider& sp : list) {
      if (sp.expires_at > now) *keep++ = sp;
    }
    list.erase(keep, list.end());
    if (list.empty()) rt.store.erase(it);
  }

  // Sweep lookup sessions whose outcome no longer matters: the query's
  // deadline has long passed (or the store route died en route).
  std::vector<uint64_t> stale;
  for (const auto& slot : rt.lookups) {
    if (slot.second.started_at + 2 * engine.params().query_deadline < now) {
      stale.push_back(slot.first);
    }
  }
  std::sort(stale.begin(), stale.end());
  for (uint64_t session : stale) rt.lookups.erase(session);
}

void DhtPlane::OnDeparture(Engine& engine, PeerId p) {
  engine.node(p).dht->ResetForDeparture();
}

void DhtPlane::Stabilize(Engine& engine, PeerId p) {
  const sim::SimTime now = engine.Now();
  const overlay::ChurnTimeline& timeline = engine.churn_timeline();
  dht::ComputeTables(ring_, p, engine.params().dht_successors,
                     engine.params().dht_fingers,
                     [&](PeerId c) { return timeline.IsOnlineAt(c, now); },
                     engine.node(p).dht.get());
}

void DhtPlane::Publish(Engine& engine, PeerId p) {
  const NodeState& n = engine.node(p);
  for (FileId f : n.file_store) {
    for (KeywordId kw : engine.catalog().sorted_keywords(f)) {
      StartStore(engine, p, kw, f);
    }
  }
}

}  // namespace locaware::core
