/**
 * @file
 * Hardware-thread execution model.
 *
 * A thread runs a Program step by step. Loop kernels advance at a
 * piecewise-constant rate (core frequency / per-iteration cycles /
 * throttle slowdown); the thread integrates progress analytically between
 * simulator events and schedules its own next boundary. This gives exact
 * timing without per-cycle simulation, which matters because a single
 * covert-channel transaction spans ~2 million core cycles (40 µs TX +
 * 650 µs reset-time).
 *
 * Chunk records are materialized analytically: between state
 * transitions the iteration rate is constant, so every chunk-record
 * timestamp in an interval is computable in closed form. accrue()
 * replays the per-chunk boundary recurrence over [lastAccrue, now) —
 * splitting at the stall end and at each record crossing, with
 * arithmetic bit-identical to the per-chunk event path — and the
 * thread's single boundary event targets only *real* state changes:
 * step end, stall end, or a replay-horizon checkpoint. External rate
 * changes invalidate the deferral: throttle flips arrive through
 * Core::touch() (accrue-before-change, as always), and frequency
 * changes arrive through Chip::beforeFreqChange() →
 * materializePending(), which flushes crossed records at the old rate.
 * Event count per loop step drops from O(iterations/recordEvery) to
 * O(state transitions) — the former dominated full-chip runs.
 *
 * The replay itself is throughput-bound, not latency-bound. At a fixed
 * rate a chunk span (ceil'd crossing + 1 ps) alternates between two
 * values a picosecond apart, so the dry run memoizes each span's two
 * quotients (iterations and cycles) and the only loop-carried work per
 * record is one add and one min; the divisions leave the loop. The
 * ceil is an integer truncate-and-carry, a record's iteration count is
 * an integer cursor, and a record stores no TSC (the reader derives it
 * from the time), so no rounding runs per record either.
 */

#ifndef ICH_CPU_THREAD_HH
#define ICH_CPU_THREAD_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/event_queue.hh"
#include "common/types.hh"
#include "cpu/chip_api.hh"
#include "cpu/perf_counters.hh"
#include "isa/program.hh"
#include "state/fwd.hh"

namespace ich
{

class Core;

/** One SMT hardware thread. */
class HwThread
{
  public:
    HwThread(Core &core, ChipApi &chip, CoreId core_id, int smt_idx);

    // Not copyable/movable: threads self-reference via scheduled events.
    HwThread(const HwThread &) = delete;
    HwThread &operator=(const HwThread &) = delete;

    /** Install a program (thread must not be running). */
    void setProgram(Program prog);

    /** Begin executing the installed program at the current time. */
    void start();

    bool started() const { return started_; }
    bool done() const { return done_; }

    /**
     * True while the thread is executing instructions (loop or rdtsc
     * spin) — i.e. contributes dynamic power and unhalted cycles.
     */
    bool activeNow() const;

    /** Instruction class currently executing, if any. */
    std::optional<InstClass> currentClass() const;

    /**
     * Timestamp records produced by Mark/chunked-Loop steps. Flushes
     * analytically-deferred chunk records up to now() first, so mid-run
     * readers (channels, spy, baselines) see exactly what the per-chunk
     * event path would have emitted by this time.
     */
    const std::vector<Record> &records() const;

    /** Counters, flushed like records() (accruals up to the last
     *  boundary the per-chunk event path would have crossed). */
    PerfCounters &counters();
    const PerfCounters &counters() const;

    /**
     * Inject an execution stall (interrupt / context switch noise). The
     * thread stops making forward progress for @p duration but remains
     * unhalted.
     */
    void stallFor(Time duration);

    /** Integrate progress up to now at the current rates. */
    void accrue();

    /**
     * Materialize deferred chunk records (and their accrual segments)
     * up to now at the current rates, without accruing the partial tail
     * past the last crossed boundary. Chip calls this on every thread
     * immediately before a frequency change; the flushing accessors use
     * it too. No-op when nothing is deferred.
     */
    void materializePending();

    /**
     * Revert to the per-chunk event-driven path: one boundary event per
     * recordEveryIterations chunk, records emitted at event dispatch.
     * Kept as the measured baseline (bench/perf_kernel BENCH_record)
     * and the byte-identity oracle for the analytic path in tests; set
     * before start().
     */
    void setLegacyChunkEvents(bool legacy) { legacyChunkEvents_ = legacy; }

    /**
     * Accrue, process step transitions, and reschedule the next boundary
     * event. Reentrancy-safe: calls arriving while a refresh is running
     * are coalesced.
     */
    void refresh();

    int smtIndex() const { return smtIdx_; }
    CoreId coreId() const { return coreId_; }

    /** Completed iterations of the current loop step (tests); flushed
     *  like records(). */
    double loopIterationsDone() const;

    /**
     * Snapshot hooks. Programs contain closures (CallStep) and so are
     * never serialized: a thread must be idle (done or not started) at
     * the quiesce point; saveState() throws otherwise. Analytic record
     * materialization joins the same contract: an idle thread has, by
     * construction, no deferred records (the completion event flushed
     * them), which saveState() re-checks loudly. Counters, records and
     * accrual marks round-trip bit-exactly, and the restored thread
     * accepts a fresh setProgram()/start() exactly like the original
     * would. A record's archive entry still carries its TSC (the
     * layout is unchanged); restoreState() throws state::ArchiveError
     * when that TSC is not tscAt() of the record's time.
     */
    void saveState(state::SaveContext &ctx) const;
    void restoreState(state::SectionReader &r, state::RestoreContext &ctx);

  private:
    Core &core_;
    ChipApi &chip_;
    CoreId coreId_;
    int smtIdx_;

    Program prog_;
    std::size_t stepIdx_ = 0;
    bool started_ = false;
    bool done_ = false;
    bool enteredStep_ = false;

    // Loop-step progress.
    double itersDone_ = 0.0;
    double nextRecordIters_ = 0.0;

    // Idle-step end time (set on entry).
    Time idleEnd_ = 0;

    Time lastAccrue_ = 0;
    Time stallUntil_ = 0;

    PerfCounters counters_;
    std::vector<Record> records_;

    // Event management.
    EventId boundaryEvent_ = EventQueue::kInvalidEvent;
    bool inRefresh_ = false;
    bool pendingRefresh_ = false;
    bool legacyChunkEvents_ = false;

    const LoopStep *currentLoop() const;
    /** Picoseconds per loop iteration at current freq/throttle state. */
    double iterationPicos(const LoopStep &step) const;
    void advance();
    void enterStep();
    void scheduleBoundary();
    void emitRecord(int tag, std::uint64_t iters_done);
    void emitRecordAt(int tag, std::uint64_t iters_done, Time at);
    void finishLoopStep(const LoopStep &step);

    /**
     * Boundary crossing precomputed by scheduleBoundary()'s dry run and
     * consumed by the materializer, so the recurrence arithmetic runs
     * once per record instead of twice. Entries are chained: each one
     * extends the accrual from the previous entry's @c when (the first
     * from replayAnchor_). The staged run is usable only while that
     * chain still matches lastAccrue_ (any external accrue between
     * boundaries re-anchors the recurrence and strands the tail, which
     * the materializer then recomputes directly). The record's tag and
     * time are the loop's tag and @c when, and the next-record cursor
     * advances by recordEveryIterations per record, exactly as staged.
     */
    struct PendingBoundary {
        Time when;          ///< boundary-event time
        double itersAfter;  ///< itersDone_ after accruing up to when
        double cycles;      ///< unhalted cycles since the previous entry
        std::uint64_t recIters; ///< staged record iterationsDone
        int recCount;       ///< records crossed at this boundary
    };
    /** kMaxReplayBoundaries entries once the thread first runs a chunked
     *  loop (staged in place); empty until then. */
    std::vector<PendingBoundary> replayCache_;
    int replayCacheSize_ = 0; ///< entries the last dry run staged
    int replayCacheHead_ = 0; ///< next entry to consume
    /** lastAccrue_ value the first staged entry extends. */
    Time replayAnchor_ = 0;
    /** Current dry-run window (kMinReplayBoundaries..kMax, adaptive). */
    int replayDepth_ = 4;

    /** One accrual segment [t0, t1) at current rates (legacy accrue
     *  body; counters + loop iteration progress). */
    void accrueSegment(Time t0, Time t1);
    /** Emit every chunk record whose boundary has been crossed, stamped
     *  at time @p at (legacy advance() emission loop). */
    void emitCrossedRecords(const LoopStep &loop, Time at);
    /** Replay boundary crossings in [lastAccrue_, t1] for @p loop. */
    void materializeLoop(const LoopStep &loop, Time t1);
    /** Next boundary-event time for the current step (mode-aware). */
    Time nextBoundaryTime();
    /**
     * Dry-run the boundary recurrence to the step end (or the replay
     * cap), filling replayCache_ and returning the time of the next
     * *scheduled* boundary.
     *
     * The per-span quotients span/iter_ps and span/period_ps are
     * memoized for the window (two entries, keyed on the span). Reuse is
     * exact: iter_ps and period_ps are fixed for the window, so a
     * repeated span means identical operands, and an IEEE division of
     * identical operands yields identical bits. Nothing can fuse the
     * division into a neighbouring operation either: x86-64 has no
     * fused divide-add, and the build passes no -march/-mfma flag, so
     * even GCC's C++ default of -ffp-contract=fast has no FMA to form.
     * Builds without NDEBUG recompute both quotients by division on
     * every record and assert they equal the memo; they also check the
     * integer ceil against std::ceil and the integer record cursor
     * against rounding the double one.
     */
    Time dryRunLoopBoundary(const LoopStep &loop, Time anchor);
};

} // namespace ich

#endif // ICH_CPU_THREAD_HH
