// Dicas (Wang et al., TPDS 2006 — the paper's reference [16] and its main
// baseline), reimplemented from the rules in paper §3.2/§4.2:
//   * caching: a passing response for file f is cached only by reverse-path
//     peers whose Gid == hash(f) mod M (eq. 1), one provider per index;
//   * routing: a query goes to neighbors whose Gid matches the query's hash,
//     falling back to one random neighbor so forwarding never blocks.
// The filename hash is computed over canonically ordered keywords, so a
// keyword query only lands in the right group when it carries *all* keywords
// of the filename — the keyword-search weakness the paper exploits.
#pragma once

#include "core/node_state.h"
#include "core/protocol.h"

namespace locaware::core {

class DicasProtocol : public Protocol {
 public:
  using Protocol::Protocol;

  ProtocolKind kind() const override { return ProtocolKind::kDicas; }

  PeerVec ForwardTargets(Engine& engine, PeerId node,
                         const overlay::QueryMessage& query,
                         PeerId from) override;
  void ObserveResponse(Engine& engine, PeerId node,
                       const overlay::ResponseMessage& response) override;
  overlay::RecordVec AnswerFromIndex(
      Engine& engine, PeerId node, const overlay::QueryMessage& query) override;

 protected:
  /// Groups a query routes toward. Dicas: the whole-query hash (precomputed
  /// as the message's canonical set hash).
  virtual GroupVec QueryGroups(Engine& engine,
                               const overlay::QueryMessage& query) const;
  /// Groups a passing response for `file` is cached under. Dicas hashes the
  /// whole filename (the catalog's precomputed set hash); Dicas-Keys hashes
  /// the *query's* keywords (the duplication + placement-mismatch weakness
  /// the paper describes).
  virtual GroupVec CacheGroups(Engine& engine,
                               const overlay::ResponseMessage& response,
                               FileId file) const;

  /// Whether a cached index for `file` can answer this query. Dicas is
  /// "designed for filename search" (§5.1): the index is keyed by the whole
  /// filename, so a lookup succeeds only when the query carries the
  /// *complete* keyword set. Partial keyword queries walk straight past
  /// Dicas caches — the weakness Locaware's Bloom routing fixes.
  virtual bool HitVisible(Engine& engine, const NodeState& node, FileId file,
                          const overlay::QueryMessage& query) const;
};

}  // namespace locaware::core
