// Dicas-Keys: the keyword-search strategy for Dicas the paper describes in
// §2 — "caching indexes based on hashing query keywords instead of the whole
// filename, which causes a large amount of duplicated cached indexes".
//
// Identical plumbing to Dicas except that group membership is per *keyword*:
// a response for f is cached in every group hash(kw_i) mod M (one duplicated
// index per distinct keyword group), and a query routes toward the group of
// one of its keywords. The duplication wastes the bounded index capacity,
// which is why the paper measures Dicas-Keys below Dicas on success rate.
#pragma once

#include "core/dicas_protocol.h"

namespace locaware::core {

class DicasKeysProtocol final : public DicasProtocol {
 public:
  using DicasProtocol::DicasProtocol;

  ProtocolKind kind() const override { return ProtocolKind::kDicasKeys; }

 protected:
  GroupVec QueryGroups(Engine& engine,
                       const overlay::QueryMessage& query) const override;
  GroupVec CacheGroups(Engine& engine,
                       const overlay::ResponseMessage& response,
                       FileId file) const override;
  bool HitVisible(Engine& engine, const NodeState& node, FileId file,
                  const overlay::QueryMessage& query) const override;
};

}  // namespace locaware::core
