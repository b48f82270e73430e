#include "trace.hh"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace sweepbench
{

namespace
{

const char *const kSpanNames[] = {
    "bench.iteration",     "exp.sweep",          "shard.sweep",
    "exp.trial",           "channels.make",      "channels.calibrate",
    "channels.transmit",   "chip.sim_run",       "detect.tenant_trial",
    "exp.colstore_accept", "exp.colstore_end",   "exp.report",
    "exp.render",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
                  static_cast<std::size_t>(SpanKind::kCount),
              "one name per SpanKind");

thread_local std::uint64_t t_current = 0;

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

const char *
spanName(SpanKind kind)
{
    return kSpanNames[static_cast<std::size_t>(kind)];
}

std::string
spanLayer(SpanKind kind)
{
    std::string name = spanName(kind);
    return name.substr(0, name.find('.'));
}

SimCounts &
SimCounts::operator+=(const SimCounts &o)
{
    events += o.events;
    simPs += o.simPs;
    ffFires += o.ffFires;
    ffSuppressions += o.ffSuppressions;
    return *this;
}

bool
SimCounts::operator==(const SimCounts &o) const
{
    return events == o.events && simPs == o.simPs &&
           ffFires == o.ffFires && ffSuppressions == o.ffSuppressions;
}

void
Recorder::addSpan(const Span &span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

void
Recorder::addTrial(const TrialSample &trial)
{
    std::lock_guard<std::mutex> lock(mu_);
    trials_.push_back(trial);
}

std::vector<Span>
Recorder::takeSpans()
{
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(spans_);
    return out;
}

std::vector<TrialSample>
Recorder::takeTrials()
{
    std::vector<TrialSample> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(trials_);
    return out;
}

void
Recorder::flushTo(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path, std::ios::trunc);
    out << "P " << ::getpid() << ' ' << peakRssKb() << '\n';
    for (const TrialSample &t : trials_)
        out << "T " << t.start << ' ' << t.end << ' ' << t.cpuNs << ' '
            << t.point << ' '
            << t.counts.events << ' ' << t.counts.simPs << ' '
            << t.counts.ffFires << ' ' << t.counts.ffSuppressions << '\n';
    for (const Span &s : spans_)
        out << "S " << static_cast<int>(s.kind) << ' ' << s.id << ' '
            << s.parent << ' ' << s.start << ' ' << s.end << ' ' << s.tid
            << '\n';
    out.flush();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

Recorder &
recorder()
{
    static Recorder r;
    return r;
}

long
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

long
readWorkerFile(const std::string &path, std::uint64_t parent,
               std::vector<TrialSample> &trials, std::vector<Span> &spans)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    // The first line names the worker's pid and peak RSS. Worker span
    // ids are small counters; the pid gives each worker an id space
    // above every coordinator id.
    std::uint64_t worker = 0;
    long peak_kb = 0;
    {
        std::string tag;
        if (!(in >> tag >> worker >> peak_kb) || tag != "P")
            throw std::runtime_error("missing worker header in " + path);
    }
    auto remap = [&](std::uint64_t id) {
        return id == 0 ? parent : (worker << 32) | id;
    };
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        char tag = 0;
        ls >> tag;
        if (tag == 'T') {
            TrialSample t;
            ls >> t.start >> t.end >> t.cpuNs >> t.point >>
                t.counts.events >> t.counts.simPs >> t.counts.ffFires >>
                t.counts.ffSuppressions;
            if (!ls)
                throw std::runtime_error("malformed trial in " + path);
            trials.push_back(t);
        } else if (tag == 'S') {
            Span s;
            int kind = 0;
            ls >> kind >> s.id >> s.parent >> s.start >> s.end >> s.tid;
            if (!ls || kind < 0 ||
                kind >= static_cast<int>(SpanKind::kCount))
                throw std::runtime_error("malformed span in " + path);
            s.kind = static_cast<SpanKind>(kind);
            s.id = remap(s.id);
            s.parent = remap(s.parent);
            s.pid = static_cast<int>(worker);
            spans.push_back(s);
        } else {
            throw std::runtime_error("malformed line in " + path);
        }
    }
    return peak_kb;
}

void
recordSpan(SpanKind kind, std::int64_t start, std::int64_t end)
{
    Span s;
    s.kind = kind;
    s.id = recorder().newSpanId();
    s.parent = t_current;
    s.start = start;
    s.end = end;
    s.pid = static_cast<int>(::getpid());
    s.tid = threadIndex();
    recorder().addSpan(s);
}

ScopedSpan::ScopedSpan(SpanKind kind, std::uint64_t parent)
    : active_(recorder().tracing())
{
    if (!active_)
        return;
    span_.kind = kind;
    span_.id = recorder().newSpanId();
    span_.parent = parent != 0 ? parent : t_current;
    span_.pid = static_cast<int>(::getpid());
    span_.tid = threadIndex();
    saved_ = t_current;
    t_current = span_.id;
    span_.start = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    span_.end = nowNs();
    t_current = saved_;
    recorder().addSpan(span_);
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : spans) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        auto it = children.find(s.id);
        if (it != children.end())
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, reach = s.start;
        for (const auto &[b, e] : iv) {
            std::int64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        self[spanLayer(s.kind)] +=
            static_cast<double>(s.end - s.start - covered);
    }
    return self;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::int64_t base = spans.empty() ? 0 : spans.front().start;
    for (const Span &s : spans)
        base = std::min(base, s.start);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%u,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}%s\n",
                     spanName(s.kind), spanLayer(s.kind).c_str(),
                     (s.start - base) / 1e3, (s.end - s.start) / 1e3,
                     s.pid, s.tid, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]\n", f);
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

} // namespace sweepbench
