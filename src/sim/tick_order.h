// Initial maintenance-tick order.
//
// Engine::Setup staggers every peer's first tick by a random offset drawn in
// peer order, and a shard's tick lane accepts a tick only at or after its
// tail, so the ticks must be scheduled in (offset, peer) order. TickOrder
// computes that order without comparison-sorting n pairs.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "sim/sim_time.h"

namespace locaware::sim {

/// Peers 0..n-1 ordered by ascending offsets[p], ties by ascending p: the
/// order std::sort gives the (offsets[p], p) pairs. A stable LSD radix sort
/// on the offset alone, 11-bit digits, as many passes as the largest offset
/// needs (2 for offsets below 2^22 us, about 4.2 s); starting from peer order
/// makes every tie break by peer id. CHECK-fails on a negative offset.
std::vector<PeerId> TickOrder(std::span<const SimTime> offsets);

}  // namespace locaware::sim
