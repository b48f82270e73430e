/**
 * @file
 * In-memory span and trial recording for the sweep benchmark.
 *
 * Every trial the benchmark runs goes through a wrapper that records
 * its host and CPU time (a TrialSample) in whichever process runs it — the
 * benchmark itself, or a shard worker that writes its samples to a
 * file on exit for the coordinator to merge. In a traced run the
 * benchmark also records a Span around each call it makes into a
 * layer (exp, shard, channels, chip, detect). Spans stay in memory and
 * are written once, at the end, as Chrome trace-event JSON.
 *
 * Times come from std::chrono::steady_clock, which is CLOCK_MONOTONIC
 * on Linux and therefore comparable across the coordinator and its
 * worker processes.
 */

#ifndef SWEEPBENCH_TRACE_HH
#define SWEEPBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sweepbench
{

/** Monotonic host time, nanoseconds. */
std::int64_t nowNs();

/**
 * CPU time of the calling thread, nanoseconds (CLOCK_THREAD_CPUTIME_ID).
 * It excludes time the thread spends preempted, whether by another
 * runnable thread or, with paravirtual steal-time accounting, by the
 * hypervisor.
 */
std::int64_t threadCpuNs();

/** What a span wraps; names are "layer.operation". */
enum class SpanKind : std::uint8_t {
    kIteration,      ///< bench.iteration: one repetition of a workload
    kSweep,          ///< exp.sweep: SweepRunner::run / runStreaming
    kShardSweep,     ///< shard.sweep: shard::runShardedStreaming
    kTrial,          ///< exp.trial: the trial wrapper
    kMakeChannel,    ///< channels.make: makeChannel()
    kCalibrate,      ///< channels.calibrate: calibration()
    kTransmit,       ///< channels.transmit: transmit()
    kSimRun,         ///< chip.sim_run: one Simulation, via SimHooks
    kTenantTrial,    ///< detect.tenant_trial: detect::runTenantTrial()
    kColstoreAccept, ///< exp.colstore_accept: ColumnStoreWriter
    kColstoreEnd,    ///< exp.colstore_end: ColumnStoreWriter::endSweep
    kReport,         ///< exp.report: text + JSON + CSV rendering
    kRender,         ///< exp.render: --render-from-style re-render
    kCount
};

/** "layer.operation" name of @p kind. */
const char *spanName(SpanKind kind);
/** The part of spanName() before the dot. */
std::string spanLayer(SpanKind kind);

struct Span {
    SpanKind kind = SpanKind::kIteration;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: a root span
    std::int64_t start = 0;
    std::int64_t end = 0;
    int pid = 0;
    std::uint32_t tid = 0;
};

/** Deterministic simulator counts of the simulations one trial ran. */
struct SimCounts {
    std::uint64_t events = 0;         ///< EventQueue::executedEvents
    std::uint64_t simPs = 0;          ///< simulated time
    std::uint64_t ffFires = 0;        ///< HorizonPlanner::fires
    std::uint64_t ffSuppressions = 0; ///< HorizonPlanner::suppressions

    SimCounts &operator+=(const SimCounts &o);
    bool operator==(const SimCounts &o) const;
    bool operator!=(const SimCounts &o) const { return !(*this == o); }
};

/** Host time of one trial. */
struct TrialSample {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t cpuNs = 0; ///< CPU time of the thread that ran it
    std::uint32_t point = 0;
    SimCounts counts; ///< zero unless the run is traced
};

/**
 * Process-wide sink for trial samples and spans. Thread-safe; trials
 * run on the sweep's pool threads.
 */
class Recorder
{
  public:
    void setTracing(bool on) { tracing_.store(on); }
    bool tracing() const { return tracing_.load(); }

    std::uint64_t newSpanId() { return nextId_.fetch_add(1); }

    /** Parent of trial spans on pool threads (the running sweep). */
    void setSweepSpan(std::uint64_t id) { sweepSpan_.store(id); }
    std::uint64_t sweepSpan() const { return sweepSpan_.load(); }

    void addSpan(const Span &span);
    void addTrial(const TrialSample &trial);

    /** Move out everything recorded since the last take. */
    std::vector<Span> takeSpans();
    std::vector<TrialSample> takeTrials();

    /**
     * Shard worker side: write the process's pid and peak RSS, then
     * every sample and span recorded in it, to @p path, one line per
     * record.
     */
    void flushTo(const std::string &path);

  private:
    std::atomic<bool> tracing_{false};
    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<std::uint64_t> sweepSpan_{0};
    std::mutex mu_; ///< guards spans_ and trials_
    std::vector<Span> spans_;
    std::vector<TrialSample> trials_;
};

Recorder &recorder();

/**
 * Peak resident set of this process image, KiB (VmHWM). Unlike
 * getrusage's ru_maxrss it does not carry over the pre-exec image, so
 * the interpreter or coordinator that spawned the process is not
 * counted.
 */
long peakRssKb();

/**
 * Coordinator side: append a worker file written by flushTo(). Span
 * ids are remapped into the worker's own id space, and the worker's
 * root spans are re-parented under @p parent. @return the worker's
 * peak RSS, KiB.
 */
long readWorkerFile(const std::string &path, std::uint64_t parent,
                    std::vector<TrialSample> &trials,
                    std::vector<Span> &spans);

/** Record a finished span under the innermost open span. */
void recordSpan(SpanKind kind, std::int64_t start, std::int64_t end);

/**
 * Records one span from construction to destruction when tracing is
 * on; does nothing otherwise. @p parent 0 means the innermost open
 * span on this thread.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanKind kind, std::uint64_t parent = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Span span_;
    std::uint64_t saved_ = 0;
    bool active_;
};

/**
 * Self time of every span — its duration minus the part of that
 * interval its child spans cover — summed per layer, nanoseconds.
 */
std::map<std::string, double> selfTimeByLayer(const std::vector<Span> &spans);

/** Write @p spans to @p path as a Chrome trace-event JSON array. */
void writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

} // namespace sweepbench

#endif // SWEEPBENCH_TRACE_HH
