#include "tango/sync_queue.hh"

#include <algorithm>

namespace flashsim::tango
{

Tick
SyncQueue::nextTick() const
{
    Tick t = EventQueue::kNever;
    for (const Op &op : ops_)
        t = std::min(t, op.tick);
    return t;
}

void
SyncQueue::runPhase(Tick tick, EventQueue &eq)
{
    execTick_ = tick;
    while (true) {
        // Round snapshot: every operation parked at this tick, in
        // canonical (node, seq) order. Operations parked while the
        // round runs (a resumed coroutine reaching another sync point
        // after a zero-time event) form the next round.
        batch_.clear();
        for (std::size_t k = 0; k < ops_.size();) {
            if (ops_[k].tick == tick) {
                batch_.push_back(ops_[k]);
                ops_[k] = ops_.back();
                ops_.pop_back();
            } else {
                ++k;
            }
        }
        if (batch_.empty())
            break;
        std::sort(batch_.begin(), batch_.end(),
                  [](const Op &a, const Op &b) {
                      if (a.node != b.node)
                          return a.node < b.node;
                      return a.seq < b.seq;
                  });
        for (const Op &op : batch_)
            op.h.resume();
        // Resumed coroutines may have scheduled zero-time events at
        // this tick (e.g. a queued write): drain them before the next
        // round so the tick stays complete.
        if (eq.nextTick() == tick)
            eq.drainTick(tick);
    }
    execTick_ = EventQueue::kNever;
}

} // namespace flashsim::tango
