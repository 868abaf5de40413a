/**
 * @file
 * Shared types of the repository benchmark (see perfbench/README.md).
 *
 * One process runs one workload: it sets the workload up several
 * times (the median is setup_s), runs one timed phase with tracing
 * off, and with --trace 1 a second, traced timed phase followed by
 * probes that replay the workload's own circuits through the layers
 * below the serving and training APIs.
 */

#ifndef EQC_PERFBENCH_H
#define EQC_PERFBENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Wall clock in seconds (steady_clock). */
double wallNow();
/** CPU seconds of the whole process, all threads. */
double cpuNow();
/** Peak resident set size of this program so far, in MB. */
double peakRssMb();

/** Median and linear-interpolated percentile of a sample. */
double percentile(std::vector<double> v, double q);

/** FNV-style mixing used for outcome digests. */
uint64_t mix(uint64_t h, uint64_t v);
uint64_t bitsOf(double x);

/**
 * In-memory span recorder. Every span is opened and closed on the
 * generator thread (the calls the benchmark makes into the library,
 * and the TraceObserver callbacks, which the virtual engine invokes on
 * the calling thread), so a plain stack gives each span its parent.
 * A span's self time is its duration minus the time its direct
 * children cover. Spans are written out once, after the run.
 */
class Tracer
{
  public:
    Tracer();
    int begin(const char *name);
    void end(int id);

    struct LayerTime
    {
        uint64_t count = 0;
        double totalS = 0.0;
        double selfS = 0.0;
    };
    /** Per-name count, summed duration and summed self time. */
    std::map<std::string, LayerTime> layers() const;
    /** Writes one JSON object per span, one per line. */
    bool write(const std::string &path) const;
    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        double startS;
        double endS;
        int parent;
    };
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : t_(t), id_(t ? t->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int id_;
};

/**
 * Counts a workload's timed phase does at a given seed. They are
 * deterministic (virtual model clock, seeded streams), so two runs of
 * one workload at one seed must produce them bit for bit; a run whose
 * counts differ is an error, not noise.
 */
struct Counts
{
    uint64_t jobs = 0;
    uint64_t circuits = 0;
    uint64_t shots = 0;
    uint64_t workItems = 0;
    uint64_t coalesced = 0;
    uint64_t cacheHits = 0;
    uint64_t forwards = 0;
    uint64_t gradResults = 0;
    uint64_t workloads = 0;
    double modelHours = 0.0;
    uint64_t digest = 0; ///< order-free hash of every outcome
    std::string str() const;
};

/** Wall clock, process CPU time and jobs done at one instant. */
struct Mark
{
    double wallS = 0.0;
    double cpuS = 0.0;
    uint64_t jobs = 0;
};

/** What one timed phase produced. */
struct Phase
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<double> roundMs;   ///< wall time of each round
    std::vector<Mark> marks;       ///< phase start, then each round's end
    std::vector<double> modelLatH; ///< model-clock latency samples
    double energyErrPct = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;            ///< failed jobs and failed checks
    std::vector<std::string> notes; ///< the first few failures, for humans
    Counts counts;

    void fail(const std::string &why);
};

using Metrics = std::vector<std::pair<std::string, double>>;

/**
 * One benchmark workload. setUp() builds the system, registers the
 * workload and warms the plan and noise caches; run() is the timed
 * phase; layers() adds the per-layer metrics of a traced phase.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setUp() = 0;
    virtual void tearDown() = 0;
    virtual Phase run(Tracer *tracer) = 0;
    /**
     * Per-layer metrics of a traced phase: span figures, counters and
     * probes. A failed cross-check is recorded on @p traced.
     */
    virtual void layers(Phase &traced, const Tracer &tracer,
                        Metrics &out) = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, int seconds);

} // namespace perfbench

#endif // EQC_PERFBENCH_H
