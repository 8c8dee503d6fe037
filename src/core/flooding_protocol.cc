#include "core/flooding_protocol.h"

#include "core/engine.h"

namespace locaware::core {

PeerVec FloodingProtocol::ForwardTargets(
    Engine& engine, PeerId node, const overlay::QueryMessage& /*query*/, PeerId from) {
  PeerVec targets;
  for (PeerId nb : engine.graph().Neighbors(node)) {
    if (nb != from) targets.push_back(nb);
  }
  return targets;
}

}  // namespace locaware::core
