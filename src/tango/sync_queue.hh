/**
 * @file
 * The tango sync phase: the canonical order for host-side
 * synchronization state.
 *
 * Lock and barrier variables (LockVar, BarrierVar) are plain host
 * memory shared by every simulated processor. Which processor wins a
 * contended lock must not depend on the order the event queue happens
 * to resume coroutines within a tick, so every access to that state
 * passes through Env::syncPoint(), which parks the coroutine here. The
 * machine's run loop then executes a tick's parked operations after
 * that tick's events, in rounds sorted by (node, per-node sequence),
 * draining any zero-time events a round schedules before the next
 * round starts. A continuation that reaches another sync point at the
 * tick whose phase is executing runs inline.
 */

#ifndef FLASHSIM_TANGO_SYNC_QUEUE_HH_
#define FLASHSIM_TANGO_SYNC_QUEUE_HH_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace flashsim::tango
{

class SyncQueue
{
  public:
    explicit SyncQueue(int num_nodes)
        : nodeSeq_(static_cast<std::size_t>(num_nodes), 0)
    {}

    SyncQueue(const SyncQueue &) = delete;
    SyncQueue &operator=(const SyncQueue &) = delete;

    /** Defer @p h, suspended at a sync point of @p node, into the sync
     *  phase at @p tick. */
    void
    park(Tick tick, NodeId node, std::coroutine_handle<> h)
    {
        ops_.push_back(Op{tick, node, nodeSeq_[node]++, h});
    }

    /** True while the phase at exactly @p tick is executing: a sync
     *  point reached then continues inline. */
    bool inlineOk(Tick tick) const { return execTick_ == tick; }

    /** Earliest tick with a parked operation, or EventQueue::kNever. */
    Tick nextTick() const;

    /** Execute the sync phase at @p tick (every event due at @p tick on
     *  @p eq has already run). */
    void runPhase(Tick tick, EventQueue &eq);

  private:
    struct Op
    {
        Tick tick;
        NodeId node;
        std::uint64_t seq;
        std::coroutine_handle<> h;
    };

    std::vector<Op> ops_;
    /** Per-node monotonic sequence numbers: the within-node order. */
    std::vector<std::uint64_t> nodeSeq_;
    Tick execTick_ = EventQueue::kNever;
    /** One round's operations; a member so phases reuse its storage. */
    std::vector<Op> batch_;
};

} // namespace flashsim::tango

#endif // FLASHSIM_TANGO_SYNC_QUEUE_HH_
