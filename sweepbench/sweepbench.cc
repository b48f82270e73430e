/**
 * @file
 * sweepbench — the IChannels campaign benchmark.
 *
 * What a user of this simulator waits for is a campaign: a sweep of
 * many seeded covert-channel or co-residency trials. This driver runs
 * three such campaigns through the public entry points the bench
 * harnesses use, on a pool of 2 threads or worker processes, and checks
 * their outputs. The workload seed is the scenario base seed; the grids
 * mirror the shipped harnesses at a raised trial count.
 *
 *  roc_detect       bench/roc_detect.cc's roc-detect grid (attacker /
 *                   honest x 3 honest rates x 2 tenant counts, server
 *                   preset), one detect::runTenantTrial per trial,
 *                   results through SweepRunner::run (the in-memory
 *                   path). The heaviest real campaign: its time goes
 *                   to the chip power model the detectors query, so it
 *                   is where ROADMAP item 2 (incremental chip power
 *                   model) shows. roc-frontier is left out; it is the
 *                   same runTenantTrial chain run serially.
 *
 *  ber_grid_stream  bench/grid_ber_noise.cc's 3-channel x 5-noise-rate
 *                   grid, each trial makeChannel + calibration() +
 *                   transmit(), results through
 *                   SweepRunner::runStreaming into
 *                   TeeSink{StreamingAggregator, ColumnStoreWriter},
 *                   reports rendered from the store, then a
 *                   --render-from-style re-render. No detectors run,
 *                   so it skips item 2's mechanism; it exposes the
 *                   event kernel, tick pump, throttling, channel
 *                   calibration and the streaming result path (item
 *                   1's colstore write path, plus the read path).
 *
 *  ber_grid_shard   the same grid, seed and result path through
 *                   shard::runShardedStreaming with 2 worker processes
 *                   (this binary re-exec'd with --shard-worker). The
 *                   simulation is identical to ber_grid_stream, so the
 *                   difference between the two is the shard layer:
 *                   spawn, handshake, pipe frames, scratch fsync and
 *                   adoption — ROADMAP item 4 (shard wire) and item
 *                   1's 2.05x-vs-3.4x scaling gap.
 *
 * ber_grid_* write through ColumnStoreWriter with its default options,
 * as the harness driver's --stream path does: chunkRecords = 4096,
 * batch (non-durable) mode. The trial count per sweep was chosen for
 * run length; it is not sized to hide or to amplify the known
 * large-chunk quadratic in ColumnStoreWriter::acceptPoint.
 *
 * A run repeats its workload's sweep ("iteration") until --seconds
 * have passed, at least 3 times and over at least 1000 trials, and
 * reports, with tracing off:
 *
 *   trials_per_s      trials / wall time of the iterations
 *   trial_ms_p50/p99  CPU time of one trial's thread, timed by the trial
 *                     wrapper in whichever process runs the trial.
 *                     Not its wall time: on a shared host a trial
 *                     preempted for a scheduler slice (a few ms) lands
 *                     in the top 1%, so a wall-time p99 measures the
 *                     neighbours' load rather than the simulator
 *   cpu_ms_per_trial  user+sys of self and children / trials
 *   setup_s           median of iteration start -> first trial start
 *                     (for the shard: worker spawn and handshake too)
 *   peak_rss_mb       the larger of this process's and any shard
 *                     worker's peak resident set (VmHWM)
 *   failed_trials_frac (the result line's failed / attempted)
 *
 * With --trace 1, traced and untraced iterations alternate. The traced
 * ones record spans around each call the benchmark makes into a layer
 * and give the per-layer metrics (sweepbench/METRICS.md lists them and
 * which end-to-end metric each should move); the untraced ones give
 * the tracing overhead. Spans are written once, at the end, as Chrome
 * trace-event JSON under <work-dir>/traces/.
 *
 * Checks, each of which fails the run (exit 1): every trial delivered;
 * report bytes identical across the iterations of a run; the ROC
 * curves monotone and the best AUC >= 0.55 (the harness's own checks);
 * the re-render from the store equal to the live reports byte for
 * byte; ber_grid_shard's reports equal to an in-process
 * ber_grid_stream sweep of the same seed; the deterministic simulator
 * counts identical across the traced iterations.
 *
 * Usage (normally through run.py, which builds this first):
 *
 *   sweepbench --workload NAME --seed N --seconds S --trace 0|1
 *              --work-dir DIR
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "detect/tenant.hh"
#include "exp/exp.hh"
#include "shard/coordinator.hh"
#include "trace.hh"

using namespace ich;
using namespace sweepbench;
namespace fs = std::filesystem;

namespace
{

constexpr int kPool = 2;
constexpr int kRocTrialsPerPoint = 24;
constexpr int kBerTrialsPerPoint = 64;
constexpr std::size_t kMinTrials = 1000;
constexpr int kMinIterations = 3;
constexpr double kMinBestAuc = 0.55;

double
msOf(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

// ------------------------------------------------------------ scenarios

/** Simulator counts of the trial running on this thread. */
thread_local SimCounts t_trialCounts;

/**
 * The trial wrapper: every trial's host and CPU time land in the
 * recorder of whichever process runs it.
 */
exp::ScenarioSpec
timed(exp::ScenarioSpec spec)
{
    spec.run = [inner = std::move(spec.run)](const exp::TrialContext &ctx) {
        t_trialCounts = SimCounts{};
        TrialSample s;
        s.point = static_cast<std::uint32_t>(ctx.pointIndex);
        exp::MetricMap m;
        {
            ScopedSpan span(SpanKind::kTrial, recorder().sweepSpan());
            const std::int64_t cpu0 = threadCpuNs();
            s.start = nowNs();
            m = inner(ctx);
            s.end = nowNs();
            s.cpuNs = threadCpuNs() - cpu0;
        }
        s.counts = t_trialCounts;
        recorder().addTrial(s);
        return m;
    };
    return spec;
}

/** bench/roc_detect.cc's roc-detect scenario (full-size grid). */
exp::ScenarioSpec
rocScenario()
{
    exp::ScenarioSpec roc;
    roc.name = "roc-detect";
    roc.description =
        "detector scores: attacker-present vs honest co-residency";
    roc.axes = {
        exp::axisLabeledValues("attacker",
                               {{"honest", 0.0}, {"attacker", 1.0}}),
        exp::axis("honest_rate", {500.0, 2000.0, 8000.0}),
        exp::axis("tenants", {2.0, 6.0}),
    };
    roc.trials = 3;
    roc.baseSeed = 42;
    roc.run = [](const exp::TrialContext &ctx) {
        detect::TenantConfig cfg;
        cfg.seed = ctx.seed;
        cfg.payloadBits = 64;
        cfg.honestTenants = ctx.point.getInt("tenants");
        cfg.honestPhiRatePerSec = ctx.point.get("honest_rate");
        cfg.attackerPresent = ctx.point.getInt("attacker") == 1;
        ScopedSpan span(SpanKind::kTenantTrial);
        return detect::runTenantTrial(cfg).metrics;
    };
    return roc;
}

/**
 * Simulator counts and a chip.sim_run span for every Simulation a
 * channel runs after the hooks are installed.
 */
CovertChannel::SimHooks
countingHooks()
{
    struct Mark {
        std::int64_t wall = 0;
        SimCounts at;
    };
    auto counts = [](Simulation &sim) {
        SimCounts c;
        c.events = sim.eq().executedEvents();
        c.simPs = sim.eq().now();
        c.ffFires = sim.chip().planner().fires();
        c.ffSuppressions = sim.chip().planner().suppressions();
        return c;
    };
    auto mark = std::make_shared<Mark>();
    CovertChannel::SimHooks hooks;
    hooks.onStart = [mark, counts](Simulation &sim) {
        mark->at = counts(sim);
        mark->wall = nowNs();
    };
    hooks.onFinish = [mark, counts](Simulation &sim) {
        std::int64_t end = nowNs();
        SimCounts c = counts(sim);
        t_trialCounts.events += c.events - mark->at.events;
        t_trialCounts.simPs += c.simPs - mark->at.simPs;
        t_trialCounts.ffFires += c.ffFires - mark->at.ffFires;
        t_trialCounts.ffSuppressions +=
            c.ffSuppressions - mark->at.ffSuppressions;
        recordSpan(SpanKind::kSimRun, mark->wall, end);
    };
    return hooks;
}

/** bench/grid_ber_noise.cc's grid-ber-noise scenario. */
exp::ScenarioSpec
berScenario()
{
    exp::ScenarioSpec grid;
    grid.name = "grid-ber-noise";
    grid.description = "BER/throughput grid: channel kind x mixed-noise "
                       "intensity (irq+ctx+App-PHI)";
    grid.axes = {
        exp::axisLabeledValues(
            "channel",
            {{toString(ChannelKind::kThread),
              static_cast<double>(ChannelKind::kThread)},
             {toString(ChannelKind::kSmt),
              static_cast<double>(ChannelKind::kSmt)},
             {toString(ChannelKind::kCores),
              static_cast<double>(ChannelKind::kCores)}}),
        exp::axis("noise_events_per_s",
                  {0.0, 100.0, 1000.0, 5000.0, 10000.0}),
    };
    grid.trials = 3;
    grid.baseSeed = 2021;
    grid.run = [](const exp::TrialContext &ctx) {
        ChannelConfig cfg;
        cfg.chip = presets::cannonLake();
        cfg.seed = ctx.seed;
        double rate = ctx.point.get("noise_events_per_s");
        cfg.noise.interruptRatePerSec = rate;
        cfg.noise.contextSwitchRatePerSec = rate / 10.0;
        cfg.app.phiRatePerSec = rate / 10.0;
        std::unique_ptr<CovertChannel> ch;
        {
            ScopedSpan span(SpanKind::kMakeChannel);
            ch = makeChannel(
                static_cast<ChannelKind>(ctx.point.getInt("channel")), cfg);
        }
        {
            // transmit() would calibrate lazily; calling it first keeps
            // the calibration run out of the hooks and its own span.
            ScopedSpan span(SpanKind::kCalibrate);
            ch->calibration();
        }
        if (recorder().tracing())
            ch->setSimHooks(countingHooks());
        TransmitResult r;
        {
            ScopedSpan span(SpanKind::kTransmit);
            r = ch->transmit(bench::lcgPayload(64, 0xFEED));
        }
        exp::MetricMap m;
        m["ber"] = r.ber;
        m["throughput_bps"] = r.throughputBps;
        m["bit_errors"] = static_cast<double>(r.bitErrors);
        return m;
    };
    return grid;
}

/** Every scenario, as a shard worker must be able to find it. */
exp::ScenarioRegistry
buildRegistry()
{
    exp::ScenarioRegistry reg;
    reg.add(timed(rocScenario()));
    reg.add(timed(berScenario()));
    return reg;
}

// ------------------------------------------------------------- checks

struct ScoreSample {
    double score;
    bool attacker;
};

/**
 * The roc_detect harness's epilogue checks: for each detector, the ROC
 * curve from thresholding the peak scores post-hoc must be monotone,
 * and the best Mann-Whitney AUC must reach kMinBestAuc. Returns the
 * first failure, or "". The curve is monotone by construction (one
 * fixed sample set, falling thresholds), so that check is kept only
 * because the harness makes it; the AUC floor is the one that can fail.
 */
std::string
rocCheck(const exp::SweepResult &res, double &best_auc)
{
    best_auc = 0.0;
    for (const char *det : {"sketch", "cusum", "duty"}) {
        const std::string metric = std::string("det_") + det + "_score";
        std::vector<ScoreSample> samples;
        for (const auto &rec : res.trials) {
            auto it = rec.metrics.find(metric);
            if (it != rec.metrics.end())
                samples.push_back(
                    {it->second,
                     res.points.at(rec.pointIndex).getInt("attacker") == 1});
        }
        if (samples.empty())
            continue;
        std::vector<double> thresholds;
        double n_pos = 0, n_neg = 0;
        for (const auto &s : samples) {
            thresholds.push_back(s.score);
            (s.attacker ? n_pos : n_neg) += 1.0;
        }
        std::sort(thresholds.begin(), thresholds.end(),
                  std::greater<double>());
        thresholds.erase(
            std::unique(thresholds.begin(), thresholds.end()),
            thresholds.end());
        double prev_tpr = 0.0, prev_fpr = 0.0;
        for (double t : thresholds) {
            double tp = 0, fp = 0;
            for (const auto &s : samples)
                if (s.score >= t)
                    (s.attacker ? tp : fp) += 1.0;
            double tpr = n_pos > 0 ? tp / n_pos : 0.0;
            double fpr = n_neg > 0 ? fp / n_neg : 0.0;
            if (tpr < prev_tpr || fpr < prev_fpr)
                return std::string(det) + " ROC is not monotone";
            prev_tpr = tpr;
            prev_fpr = fpr;
        }
        double wins = 0, pairs = 0;
        for (const auto &a : samples) {
            if (!a.attacker)
                continue;
            for (const auto &b : samples) {
                if (b.attacker)
                    continue;
                pairs += 1.0;
                wins += a.score > b.score ? 1.0
                        : a.score == b.score ? 0.5
                                             : 0.0;
            }
        }
        if (pairs > 0)
            best_auc = std::max(best_auc, wins / pairs);
    }
    if (best_auc < kMinBestAuc)
        return "best detector AUC " + std::to_string(best_auc) +
               " is below " + std::to_string(kMinBestAuc);
    return "";
}

// --------------------------------------------------------- iterations

enum class Workload { kRocDetect, kBerStream, kBerShard };

const char *const kWorkloadNames[] = {"roc_detect", "ber_grid_stream",
                                      "ber_grid_shard"};

struct Cpu {
    double selfMs = 0.0;
    double childMs = 0.0;
};

Cpu
cpuNow()
{
    auto ms = [](const rusage &r) {
        return (r.ru_utime.tv_sec + r.ru_stime.tv_sec) * 1e3 +
               (r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e3;
    };
    rusage self{}, children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return {ms(self), ms(children)};
}

/** One repetition of a workload's sweep and its result handling. */
struct Iteration {
    bool traced = false;
    std::size_t expectedTrials = 0;
    std::int64_t start = 0;
    std::int64_t sweepStart = 0;
    std::int64_t sweepReturn = 0;
    std::int64_t end = 0;
    Cpu cpu;      ///< whole iteration
    Cpu sweepCpu; ///< the sweep call alone
    /** Every trial's sample; kept past the iteration only if traced. */
    std::vector<TrialSample> trials;
    std::size_t nTrials = 0;
    std::int64_t firstTrialStart = 0;
    std::int64_t lastTrialEnd = 0;
    std::vector<float> trialCpuMs; ///< each trial's thread CPU time
    std::vector<Span> spans;
    double reportMs = 0.0;
    double renderMs = 0.0;
    double readS = 0.0;
    std::uint64_t readRecords = 0;
    double colstoreAcceptMs = 0.0;
    double colstoreEndMs = 0.0;
    double colstoreBytesPerRecord = 0.0;
    std::vector<std::int64_t> pointTimes; ///< coordinator point arrivals
    long workerPeakKb = 0;                ///< largest shard worker RSS
    double bestAuc = 0.0;
    std::string reports; ///< live text + JSON + CSV
    std::string error;   ///< first failed check ("" if none)

    double wallS() const { return (end - start) / 1e9; }
    SimCounts counts() const
    {
        SimCounts c;
        for (const auto &s : trials)
            c += s.counts;
        return c;
    }
    void fail(const std::string &why)
    {
        if (error.empty())
            error = why;
    }
};

/** Publishes the sweep identity to the report view. */
class MetaCapture final : public exp::ResultSink
{
  public:
    void beginSweep(const exp::SweepMeta &meta) override { meta_ = meta; }
    void acceptPoint(std::size_t, const exp::TrialRecord *,
                     std::size_t) override
    {
    }
    void endSweep() override {}
    const exp::SweepMeta &meta() const { return meta_; }

  private:
    exp::SweepMeta meta_;
};

/**
 * Traced runs: times the column store writer's calls, and notes when
 * each point reached the sink (for the shard, the coordinator's).
 */
class TimedSink final : public exp::ResultSink
{
  public:
    TimedSink(exp::ResultSink &inner, Iteration &it)
        : inner_(inner), it_(it)
    {
    }
    void beginSweep(const exp::SweepMeta &meta) override
    {
        inner_.beginSweep(meta);
    }
    void acceptPoint(std::size_t idx, const exp::TrialRecord *records,
                     std::size_t count) override
    {
        std::int64_t t0 = nowNs();
        it_.pointTimes.push_back(t0);
        {
            ScopedSpan span(SpanKind::kColstoreAccept,
                            recorder().sweepSpan());
            inner_.acceptPoint(idx, records, count);
        }
        it_.colstoreAcceptMs += msOf(nowNs() - t0);
    }
    void endSweep() override
    {
        std::int64_t t0 = nowNs();
        {
            ScopedSpan span(SpanKind::kColstoreEnd, recorder().sweepSpan());
            inner_.endSweep();
        }
        it_.colstoreEndMs += msOf(nowNs() - t0);
    }

  private:
    exp::ResultSink &inner_;
    Iteration &it_;
};

template <typename Sweep>
std::string
renderReports(const Sweep &sweep)
{
    return exp::textReport(sweep) + exp::jsonReport(sweep) +
           exp::csvReport(sweep);
}

void
runRoc(Iteration &it, std::uint64_t seed)
{
    const exp::ScenarioSpec spec = timed(rocScenario());
    exp::RunnerOptions ro;
    ro.jobs = kPool;
    ro.seed = seed;
    ro.trials = kRocTrialsPerPoint;
    it.expectedTrials = exp::expandPoints(spec).size() * kRocTrialsPerPoint;

    exp::SweepResult res;
    {
        ScopedSpan sweep(SpanKind::kSweep);
        recorder().setSweepSpan(sweep.id());
        Cpu c0 = cpuNow();
        it.sweepStart = nowNs();
        res = exp::SweepRunner(ro).run(spec);
        it.sweepReturn = nowNs();
        Cpu c1 = cpuNow();
        it.sweepCpu = {c1.selfMs - c0.selfMs, c1.childMs - c0.childMs};
    }
    {
        ScopedSpan report(SpanKind::kReport);
        std::int64_t t0 = nowNs();
        it.reports = renderReports(res);
        it.reportMs = msOf(nowNs() - t0);
    }
    if (res.trials.size() != it.expectedTrials)
        it.fail("roc-detect delivered " + std::to_string(res.trials.size()) +
                " of " + std::to_string(it.expectedTrials) + " trials");
    it.fail(rocCheck(res, it.bestAuc));
}

/** The sweep identity --render-from rebuilds from the spec. */
exp::SweepMeta
renderMeta(const exp::ScenarioSpec &spec, std::uint64_t seed, int trials)
{
    exp::SweepMeta meta;
    meta.scenario = spec.name;
    meta.description = spec.description;
    meta.baseSeed = seed;
    meta.trialsPerPoint = trials;
    meta.points = exp::expandPoints(spec);
    meta.gridFp = exp::gridFingerprint(meta.points);
    return meta;
}

void
runBer(Iteration &it, std::uint64_t seed, bool sharded,
       const fs::path &tmp)
{
    const exp::ScenarioSpec spec = timed(berScenario());
    const std::string store = exp::resultStorePath(tmp.string(), spec.name);
    it.expectedTrials = exp::expandPoints(spec).size() * kBerTrialsPerPoint;

    MetaCapture meta;
    exp::StreamingAggregator agg;
    exp::ColumnStoreWriter writer(store);
    TimedSink timed_writer(writer, it);
    exp::TeeSink tee({&meta, &agg,
                      it.traced ? static_cast<exp::ResultSink *>(&timed_writer)
                                : &writer});

    std::uint64_t sweep_span = 0;
    {
        ScopedSpan sweep(sharded ? SpanKind::kShardSweep : SpanKind::kSweep);
        sweep_span = sweep.id();
        recorder().setSweepSpan(sweep_span);
        Cpu c0 = cpuNow();
        it.sweepStart = nowNs();
        if (sharded) {
            shard::ShardOptions so;
            so.workers = kPool;
            so.seed = seed;
            so.trials = kBerTrialsPerPoint;
            so.scratchDir = (tmp / "shard-scratch").string();
            so.workerArgs = {"--bench-worker-dir", tmp.string()};
            if (it.traced)
                so.workerArgs.push_back("--bench-trace");
            shard::runShardedStreaming(spec, so, tee);
        } else {
            exp::RunnerOptions ro;
            ro.jobs = kPool;
            ro.seed = seed;
            ro.trials = kBerTrialsPerPoint;
            exp::SweepRunner(ro).runStreaming(spec, tee);
        }
        it.sweepReturn = nowNs();
        Cpu c1 = cpuNow();
        it.sweepCpu = {c1.selfMs - c0.selfMs, c1.childMs - c0.childMs};
    }
    if (sharded) {
        // Workers wrote their trial samples (and spans) on exit.
        for (const auto &entry : fs::directory_iterator(tmp)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("worker-", 0) != 0)
                continue;
            it.workerPeakKb = std::max(
                it.workerPeakKb,
                readWorkerFile(entry.path().string(), sweep_span, it.trials,
                               it.spans));
            fs::remove(entry.path());
        }
    }
    if (agg.completedPoints() != meta.meta().numPoints())
        it.fail("grid-ber-noise completed " +
                std::to_string(agg.completedPoints()) + " of " +
                std::to_string(meta.meta().numPoints()) + " points");

    {
        ScopedSpan report(SpanKind::kReport);
        std::int64_t t0 = nowNs();
        exp::ColumnStoreReader reader(store);
        exp::StoreSweepView view{meta.meta(), agg, reader};
        it.reports = renderReports(view);
        it.reportMs = msOf(nowNs() - t0);
    }
    {
        // --render-from: rebuild the identity from the spec, replay the
        // store into a fresh aggregator, render again.
        ScopedSpan render(SpanKind::kRender);
        std::int64_t t0 = nowNs();
        const exp::SweepMeta rmeta =
            renderMeta(spec, seed, kBerTrialsPerPoint);
        exp::ColumnStoreReader reader(store);
        if (!reader.matches(rmeta) ||
            reader.completedPoints() != rmeta.numPoints())
            it.fail("the column store does not hold the whole sweep");
        exp::StreamingAggregator ragg;
        ragg.beginSweep(rmeta);
        reader.forEachPoint(
            [&](std::size_t idx, const std::vector<exp::TrialRecord> &recs) {
                ragg.acceptPoint(idx, recs.data(), recs.size());
            });
        ragg.endSweep();
        it.readS = (nowNs() - t0) / 1e9;
        it.readRecords = reader.totalRecords();
        exp::StoreSweepView view{rmeta, ragg, reader};
        const std::string again = renderReports(view);
        it.renderMs = msOf(nowNs() - t0);
        if (again != it.reports)
            it.fail("the re-render from the store differs from the live "
                    "reports");
    }
    if (it.readRecords > 0)
        it.colstoreBytesPerRecord =
            static_cast<double>(fs::file_size(store)) / it.readRecords;
}

/** Run one iteration; a throw becomes a failed check. */
Iteration
runIteration(Workload w, std::uint64_t seed, bool traced,
             const fs::path &tmp)
{
    Iteration it;
    it.traced = traced;
    recorder().setTracing(traced);
    Cpu c0 = cpuNow();
    it.start = nowNs();
    try {
        ScopedSpan iteration(SpanKind::kIteration);
        if (w == Workload::kRocDetect)
            runRoc(it, seed);
        else
            runBer(it, seed, w == Workload::kBerShard, tmp);
    } catch (const std::exception &e) {
        it.fail(e.what());
    }
    it.end = nowNs();
    Cpu c1 = cpuNow();
    it.cpu = {c1.selfMs - c0.selfMs, c1.childMs - c0.childMs};
    recorder().setTracing(false);
    for (auto &s : recorder().takeTrials())
        it.trials.push_back(s);
    for (auto &s : recorder().takeSpans())
        it.spans.push_back(s);
    // A store left behind would be adopted by the next iteration.
    std::error_code ec;
    fs::remove(exp::resultStorePath(tmp.string(), berScenario().name), ec);
    it.nTrials = it.trials.size();
    if (it.error.empty() && it.nTrials != it.expectedTrials)
        it.fail("recorded " + std::to_string(it.nTrials) + " of " +
                std::to_string(it.expectedTrials) + " trials");
    it.firstTrialStart = it.sweepReturn;
    it.lastTrialEnd = it.sweepStart;
    for (const auto &t : it.trials) {
        it.firstTrialStart = std::min(it.firstTrialStart, t.start);
        it.lastTrialEnd = std::max(it.lastTrialEnd, t.end);
        it.trialCpuMs.push_back(static_cast<float>(msOf(t.cpuNs)));
    }
    // Untraced iterations keep only each trial's CPU time, so the
    // driver's own memory barely grows with the run length.
    if (!traced)
        std::vector<TrialSample>().swap(it.trials);
    return it;
}

// ------------------------------------------------------------ metrics

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * (v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

/**
 * End-to-end metrics of @p its. @p driver_peak_kb is the driver's own
 * peak RSS, taken before anything the workload itself does not run.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<const Iteration *> &its,
                long driver_peak_kb, double &tps)
{
    std::size_t trials = 0;
    double wall = 0.0, cpu = 0.0;
    long peak_kb = driver_peak_kb;
    std::vector<double> trial_ms, setup;
    for (const Iteration *it : its) {
        peak_kb = std::max(peak_kb, it->workerPeakKb);
        trials += it->nTrials;
        wall += it->wallS();
        cpu += it->cpu.selfMs + it->cpu.childMs;
        setup.push_back((it->firstTrialStart - it->start) / 1e9);
        trial_ms.insert(trial_ms.end(), it->trialCpuMs.begin(),
                        it->trialCpuMs.end());
    }
    if (trials == 0)
        return {};
    tps = trials / wall;
    return {
        {"trials_per_s", "1/s", tps},
        {"trial_ms_p50", "ms", percentile(trial_ms, 0.50)},
        {"trial_ms_p99", "ms", percentile(trial_ms, 0.99)},
        {"cpu_ms_per_trial", "ms", cpu / trials},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mb", "MB", peak_kb / 1024.0},
    };
}

/**
 * Per-layer metrics from the traced iterations. Metrics of a layer the
 * workload does not exercise read 0 (METRICS.md says which apply).
 */
std::vector<Metric>
perLayerMetrics(Workload w, const std::vector<const Iteration *> &its,
                double traced_tps, double untraced_tps)
{
    const bool ber = w != Workload::kRocDetect;
    const bool sharded = w == Workload::kBerShard;
    double trials = 0, busy_ms = 0, sweep_ms = 0;
    std::map<SpanKind, double> span_ms;
    std::vector<Span> spans;
    SimCounts counts;
    std::vector<double> tail, report, accept, end, render, first_point,
        gaps, attacker_ms, honest_ms;
    double read_s = 0, read_records = 0, bytes_per_record = 0;
    double coord_cpu = 0, worker_cpu = 0;
    const std::vector<exp::ParamPoint> roc_points =
        exp::expandPoints(rocScenario());
    for (const Iteration *it : its) {
        trials += it->trials.size();
        sweep_ms += msOf(it->sweepReturn - it->sweepStart);
        for (const auto &s : it->trials) {
            double ms = msOf(s.end - s.start);
            busy_ms += ms;
            if (w == Workload::kRocDetect)
                (roc_points.at(s.point).getInt("attacker") == 1
                     ? attacker_ms
                     : honest_ms)
                    .push_back(ms);
        }
        for (const auto &s : it->spans)
            span_ms[s.kind] += msOf(s.end - s.start);
        spans.insert(spans.end(), it->spans.begin(), it->spans.end());
        counts += it->counts();
        tail.push_back(msOf(it->sweepReturn - it->lastTrialEnd));
        report.push_back(it->reportMs);
        accept.push_back(it->colstoreAcceptMs);
        end.push_back(it->colstoreEndMs);
        render.push_back(it->renderMs);
        read_s += it->readS;
        read_records += it->readRecords;
        bytes_per_record = it->colstoreBytesPerRecord;
        if (!it->pointTimes.empty())
            first_point.push_back(
                msOf(it->pointTimes.front() - it->sweepStart));
        for (std::size_t i = 1; i < it->pointTimes.size(); ++i)
            gaps.push_back(msOf(it->pointTimes[i] - it->pointTimes[i - 1]));
        coord_cpu += it->sweepCpu.selfMs;
        worker_cpu += it->sweepCpu.childMs;
    }
    const std::map<std::string, double> self = selfTimeByLayer(spans);
    auto per_trial = [&](double v) { return trials > 0 ? v / trials : 0.0; };
    auto self_ms = [&](const char *layer) {
        auto it = self.find(layer);
        return it == self.end() ? 0.0 : per_trial(msOf(it->second));
    };
    auto only = [](bool applies, double v) { return applies ? v : 0.0; };
    const double sim_run_s = span_ms[SpanKind::kSimRun] / 1e3;

    return {
        {"channels.calibrate_ms_per_trial", "ms",
         per_trial(span_ms[SpanKind::kCalibrate])},
        {"channels.transmit_ms_per_trial", "ms",
         per_trial(span_ms[SpanKind::kTransmit])},
        {"chip.sim_run_ms_per_trial", "ms",
         per_trial(span_ms[SpanKind::kSimRun])},
        {"chip.sim_s_per_wall_s", "s/s",
         sim_run_s > 0 ? counts.simPs / 1e12 / sim_run_s : 0.0},
        // Divide by trials first: the quotient of the exact integer
        // sums is the same however many traced iterations ran.
        {"chip.sim_us_per_trial", "us",
         per_trial(static_cast<double>(counts.simPs)) / 1e6},
        {"common.events_per_trial", "count",
         per_trial(static_cast<double>(counts.events))},
        {"chip.ff_fires_per_trial", "count",
         per_trial(static_cast<double>(counts.ffFires))},
        {"chip.ff_suppressions_per_trial", "count",
         per_trial(static_cast<double>(counts.ffSuppressions))},
        {"detect.attacker_trial_ms_p50", "ms", median(attacker_ms)},
        {"detect.honest_trial_ms_p50", "ms", median(honest_ms)},
        {"exp.worker_busy_frac", "ratio",
         sweep_ms > 0 ? busy_ms / (kPool * sweep_ms) : 0.0},
        {"exp.tail_ms", "ms", median(tail)},
        {"exp.report_ms", "ms", median(report)},
        {"exp.colstore_accept_ms", "ms", only(ber, median(accept))},
        {"exp.colstore_end_ms", "ms", only(ber, median(end))},
        {"exp.colstore_bytes_per_record", "count", bytes_per_record},
        {"exp.render_ms", "ms", only(ber, median(render))},
        {"exp.read_records_per_s", "1/s",
         read_s > 0 ? read_records / read_s : 0.0},
        {"shard.first_point_ms", "ms", only(sharded, median(first_point))},
        {"shard.point_gap_ms_p50", "ms",
         only(sharded, percentile(gaps, 0.50))},
        {"shard.point_gap_ms_p99", "ms",
         only(sharded, percentile(gaps, 0.99))},
        {"shard.coordinator_cpu_ms_per_trial", "ms",
         only(sharded, per_trial(coord_cpu))},
        {"shard.worker_cpu_ms_per_trial", "ms",
         only(sharded, per_trial(worker_cpu))},
        {"self.bench_ms_per_trial", "ms", self_ms("bench")},
        {"self.exp_ms_per_trial", "ms", self_ms("exp")},
        {"self.shard_ms_per_trial", "ms", self_ms("shard")},
        {"self.channels_ms_per_trial", "ms", self_ms("channels")},
        {"self.chip_ms_per_trial", "ms", self_ms("chip")},
        {"self.detect_ms_per_trial", "ms", self_ms("detect")},
        {"trace.overhead_frac", "ratio",
         untraced_tps > 0 ? 1.0 - traced_tps / untraced_tps : 0.0},
    };
}

// --------------------------------------------------------------- main

struct Args {
    Workload workload = Workload::kRocDetect;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: sweepbench --workload "
                 "roc_detect|ber_grid_stream|ber_grid_shard --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                auto it = std::find(std::begin(kWorkloadNames),
                                    std::end(kWorkloadNames), v);
                if (it == std::end(kWorkloadNames))
                    usage(("unknown workload " + v).c_str());
                a.workload = static_cast<Workload>(
                    it - std::begin(kWorkloadNames));
                have_workload = true;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
                have_seed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
            } else if (flag == "--trace") {
                a.trace = std::stoi(v) != 0;
            } else if (flag == "--work-dir") {
                a.workDir = v;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || a.seconds <= 0 || a.workDir.empty())
        usage("--workload, --seed, --seconds and --work-dir are required");
    return a;
}

/** Shard worker: this binary re-exec'd by the coordinator. */
int
workerMain(int argc, char **argv)
{
    std::string dir;
    bool trace = false;
    std::vector<const char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--bench-worker-dir") == 0 && i + 1 < argc)
            dir = argv[++i];
        else if (std::strcmp(argv[i], "--bench-trace") == 0)
            trace = true;
        else
            args.push_back(argv[i]);
    }
    recorder().setTracing(trace);
    exp::ScenarioRegistry reg = buildRegistry();
    exp::CliOptions cli;
    int rc = exp::harnessSetup(static_cast<int>(args.size()), args.data(),
                               reg, cli);
    if (rc == 0 && !dir.empty()) {
        try {
            recorder().flushTo(
                (fs::path(dir) / ("worker-" + std::to_string(::getpid()) +
                                  ".txt"))
                    .string());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            rc = 1;
        }
    }
    return rc < 0 ? 2 : rc;
}

/** The run's scratch directory, removed on every exit path. */
class TempDir
{
  public:
    explicit TempDir(fs::path path) : path_(std::move(path))
    {
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--shard-worker") == 0)
            return workerMain(argc, argv);

    const Args args = parseArgs(argc, argv);
    const char *workload = kWorkloadNames[static_cast<int>(args.workload)];
    const TempDir tmp(fs::absolute(args.workDir) /
                      ("sweepbench-tmp-" + std::to_string(::getpid())));

    // Repeat until the time is up and there are enough samples. With
    // --trace 1, traced and untraced iterations alternate.
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    std::vector<Iteration> its;
    std::size_t untraced_trials = 0;
    int n_untraced = 0, n_traced = 0;
    std::string error;
    for (;;) {
        bool enough = untraced_trials >= kMinTrials &&
                      n_untraced >= kMinIterations &&
                      (!args.trace || n_traced >= kMinIterations);
        if (enough && nowNs() >= deadline)
            break;
        bool traced = args.trace && n_traced < n_untraced;
        its.push_back(runIteration(args.workload, args.seed, traced,
                                   tmp.path()));
        Iteration &it = its.back();
        // Report bytes are compared as they arrive and not kept, so
        // the benchmark's own memory stays flat over a run.
        if (it.error.empty() && its.size() > 1) {
            if (it.reports != its.front().reports)
                it.fail("report bytes differ between iterations of one "
                        "seed");
            std::string().swap(it.reports);
        }
        if (traced) {
            ++n_traced;
        } else {
            ++n_untraced;
            untraced_trials += it.nTrials;
        }
        if (!it.error.empty()) {
            error = it.error;
            break;
        }
    }
    // Taken here, so the in-process reference sweep below, which the
    // sharded workload does not run, stays out of its peak_rss_mb.
    const long driver_peak_kb = peakRssKb();

    // Determinism: every traced iteration ran the same simulations.
    const Iteration *first_traced = nullptr;
    for (const Iteration &it : its) {
        if (!error.empty())
            break;
        if (!it.traced)
            continue;
        if (!first_traced)
            first_traced = &it;
        else if (it.counts() != first_traced->counts() ||
                 it.colstoreBytesPerRecord !=
                     first_traced->colstoreBytesPerRecord)
            error = "deterministic counts differ between iterations of "
                    "one seed";
    }
    if (error.empty() && args.workload == Workload::kBerShard) {
        Iteration ref = runIteration(Workload::kBerStream, args.seed, false,
                                     tmp.path());
        if (!ref.error.empty())
            error = "in-process reference: " + ref.error;
        else if (ref.reports != its.front().reports)
            error = "ber_grid_shard reports differ from ber_grid_stream's";
    }

    std::size_t attempted = 0;
    for (const Iteration &it : its)
        attempted += std::max(it.expectedTrials, it.nTrials);
    const std::size_t failed = error.empty() ? 0 : attempted;

    std::vector<const Iteration *> untraced, traced;
    for (const Iteration &it : its)
        (it.traced ? traced : untraced).push_back(&it);
    double untraced_tps = 0.0, traced_tps = 0.0;
    std::vector<Metric> e2e =
        endToEndMetrics(untraced, driver_peak_kb, untraced_tps);
    std::vector<Metric> metrics = e2e;
    std::printf("sweepbench %s seed %llu: %zu iterations, %zu trials, "
                "pool %d\n",
                workload, static_cast<unsigned long long>(args.seed),
                its.size(), attempted, kPool);
    if (args.workload == Workload::kRocDetect && !its.empty())
        std::printf("best detector AUC %.3f\n", its.front().bestAuc);
    std::printf("end to end (untraced):\n");
    printMetrics(e2e);
    std::printf("  %-36s %14.6g ratio\n", "failed_trials_frac",
                attempted ? static_cast<double>(failed) / attempted : 1.0);
    if (args.trace) {
        endToEndMetrics(traced, driver_peak_kb, traced_tps);
        metrics = perLayerMetrics(args.workload, traced, traced_tps,
                                  untraced_tps);
        std::printf("per layer (traced):\n");
        printMetrics(metrics);
        std::vector<Span> spans;
        for (const Iteration *it : traced)
            spans.insert(spans.end(), it->spans.begin(), it->spans.end());
        const fs::path dir = fs::absolute(args.workDir) / "traces";
        const fs::path file =
            dir / (std::string(workload) + "-seed" +
                   std::to_string(args.seed) + ".json");
        try {
            fs::create_directories(dir);
            writeChromeTrace(file.string(), spans);
            std::printf("trace: %zu spans in %s\n", spans.size(),
                        file.string().c_str());
        } catch (const std::exception &e) {
            if (error.empty())
                error = e.what();
        }
    }
    if (!error.empty())
        std::fprintf(stderr, "sweepbench: check failed: %s\n",
                     error.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                error.empty() ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return error.empty() ? 0 : 1;
}
