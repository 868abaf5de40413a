/**
 * @file
 * eqc_perfbench: runs one benchmark workload and prints its metrics.
 *
 *   eqc_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--out-dir DIR]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics of a traced phase and writes its spans to
 * DIR/spans-<workload>-<seed>.jsonl. The last line of standard output
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Any failed output check makes the exit code 1; a build that is not
 * an optimized Release build is refused with exit code 3.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "perfbench.h"
#include "quantum/simd_dispatch.h"

#ifndef EQC_BENCH_BUILD_TYPE
#define EQC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef EQC_BENCH_CXX_FLAGS
#define EQC_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef EQC_BENCH_COMPILER
#define EQC_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;
/** Slices of the timed phase behind jobs_per_s and cpu_s. */
constexpr std::size_t kSlices = 10;

/** Per-layer metrics and units: every workload prints all of them. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"transpile.register_ms", "ms"},     {"transpile.us_per_circuit", "us"},
    {"sim.fuse_us", "us"},               {"sim.fused_ops", "count"},
    {"sim.entries_us", "us"},            {"quantum.apply_us", "us"},
    {"quantum.bytes_per_circuit", "B"},  {"device.circuits", "count"},
    {"device.execute_warm_us", "us"},    {"device.noise_ctx_us", "us"},
    {"device.plan_cold_us", "us"},       {"device.busy_share", "1"},
    {"common.rng_fork_ns", "ns"},        {"vqa.estimate_batch_us", "us"},
    {"vqa.grad_us", "us"},               {"core.results", "count"},
    {"core.self_share", "1"},            {"serve.submit_us", "us"},
    {"serve.drain_ms", "ms"},            {"serve.self_share", "1"},
    {"serve.coalesce_ratio", "1"},       {"serve.cache_hit_rate", "1"},
    {"serve.shards_per_item", "1"},      {"serve.queue_wait_p95_h", "model-h"},
    {"serve.rejected", "count"},         {"serve.requeued", "count"},
    {"serve.workloads", "count"},        {"router.submit_us", "us"},
    {"router.drain_ms", "ms"},           {"router.node_imbalance", "1"},
    {"router.forwards", "count"},        {"router.cpu_per_wall", "1"},
    {"share.generator", "1"},            {"share.submit", "1"},
    {"share.drain", "1"},                {"share.engine", "1"},
    {"share.observer", "1"},             {"share.kernels", "1"},
    {"share.fused_entries", "1"},        {"share.noise_ctx", "1"},
    {"share.rng", "1"},                  {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

struct Fingerprint
{
    std::string cpu;
    long nproc = 0;
    std::string simd;
    std::string compiler = EQC_BENCH_COMPILER;
    std::string buildType = EQC_BENCH_BUILD_TYPE;
    std::string flags = EQC_BENCH_CXX_FLAGS;
};

Fingerprint
fingerprint()
{
    Fingerprint f;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            f.cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    f.nproc = sysconf(_SC_NPROCESSORS_ONLN);
#ifdef EQC_KERNEL_X86_DISPATCH
    f.simd = eqc::detail::cpuHasAvx2Fma() ? "avx2+fma (runtime dispatch)"
                                          : "scalar (cpu lacks avx2+fma)";
#else
    f.simd = "scalar (EQC_NO_SIMD_DISPATCH)";
#endif
    return f;
}

/** Why this build must not be timed, or empty. */
std::string
untimeableBuild(const Fingerprint &f)
{
    if (f.buildType != "Release")
        return "build type is '" + f.buildType + "', not Release";
    if (f.flags.find("-pg") != std::string::npos)
        return "build carries -pg";
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    return "build is not optimized with NDEBUG";
#else
    return "";
#endif
}

std::string
num(double v)
{
    char b[64];
    std::snprintf(b, sizeof b, "%.17g", std::isfinite(v) ? v : 0.0);
    return b;
}

/**
 * FNV-1a hash of this binary. It keys the work-identity record, so a
 * rebuilt program starts a fresh record instead of being held to the
 * counts of other code.
 */
std::string
binaryId()
{
    std::ifstream in("/proc/self/exe", std::ios::binary);
    uint64_t h = 1469598103934665603ull;
    char buf[1 << 16];
    while (in.read(buf, sizeof buf), in.gcount() > 0) {
        for (std::streamsize i = 0; i < in.gcount(); ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 1099511628211ull;
        }
    }
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h));
    return out;
}

/**
 * Work-identity guard: the deterministic counts of a workload at a
 * seed are stored on first sight and must match on every later run of
 * the same binary.
 */
bool
identityHolds(const std::string &dir, const std::string &key,
              const Counts &c, std::string &why)
{
    const std::string path = dir + "/identity-" + key + ".txt";
    const std::string mine = c.str();
    std::ifstream in(path);
    std::string seen;
    if (std::getline(in, seen)) {
        if (seen == mine)
            return true;
        why = "work identity differs from an earlier run at this seed:\n"
              "  earlier: " + seen + "\n  now:     " + mine;
        return false;
    }
    std::ofstream(path) << mine << "\n";
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: eqc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    uint64_t seed = 0;
    int seconds = 0;
    int trace = -1;
    std::string outDir = ".";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            name = v;
        else if (k == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            seconds = std::atoi(v);
        else if (k == "--trace")
            trace = std::atoi(v);
        else if (k == "--out-dir")
            outDir = v;
        else
            return usage();
    }
    if (argc % 2 == 0 || seconds < 1 || (trace != 0 && trace != 1))
        return usage();
    std::unique_ptr<Workload> w = makeWorkload(name, seed, seconds);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return usage();
    }

    const Fingerprint fp = fingerprint();
    std::printf("# eqc_perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
                name.c_str(), static_cast<unsigned long long>(seed), seconds,
                trace);
    std::printf("# cpu=\"%s\" nproc=%ld simd=\"%s\" compiler=\"%s\" "
                "build=%s flags=\"%s\"\n",
                fp.cpu.c_str(), fp.nproc, fp.simd.c_str(),
                fp.compiler.c_str(), fp.buildType.c_str(), fp.flags.c_str());
    const std::string bad = untimeableBuild(fp);
    if (!bad.empty()) {
        std::fprintf(stderr, "refusing to time this build: %s\n",
                     bad.c_str());
        return 3;
    }

    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
        if (k > 0)
            w->tearDown();
        const double t0 = wallNow();
        w->setUp();
        setups.push_back(wallNow() - t0);
    }
    Phase ph = w->run(nullptr);

    Metrics layerMetrics;
    Tracer tracer;
    if (trace) {
        w->tearDown();
        w->setUp();
        Phase traced = w->run(&tracer);
        if (traced.counts.str() != ph.counts.str())
            traced.fail("traced phase did different work: " +
                        traced.counts.str() + " vs " + ph.counts.str());
        w->layers(traced, tracer, layerMetrics);
        const double untracedRate = double(ph.counts.jobs) / ph.wallS;
        const double tracedRate = double(traced.counts.jobs) / traced.wallS;
        layerMetrics.emplace_back("trace.overhead_pct",
                                  100.0 * (untracedRate - tracedRate) /
                                      untracedRate);
        layerMetrics.emplace_back("trace.spans", double(tracer.size()));
        const std::string path = outDir + "/spans-" + name + "-" +
                                 std::to_string(seed) + ".jsonl";
        if (!tracer.write(path))
            traced.fail("cannot write " + path);
        else
            std::printf("# spans: %zu written to %s\n", tracer.size(),
                        path.c_str());
        ph.failed += traced.failed;
        ph.notes.insert(ph.notes.end(), traced.notes.begin(),
                        traced.notes.end());
    }
    w->tearDown();

    std::string why;
    if (!identityHolds(outDir,
                       name + "-" + std::to_string(seed) + "-" +
                           std::to_string(seconds) + "-" + binaryId(),
                       ph.counts, why))
        ph.fail(why);
    std::printf("# counts: %s\n", ph.counts.str().c_str());

    // Every timed figure is a median over ten equal slices of the timed
    // phase (slice boundaries fall between rounds): a burst of host
    // contention then moves one slice rather than the figure. The tail
    // is each slice's p95 of round time.
    std::vector<double> sliceRate, sliceCpu, sliceP50, sliceP95;
    const std::size_t rounds = ph.roundMs.size();
    for (std::size_t i = 0; i < kSlices && rounds >= kSlices; ++i) {
        const std::size_t lo = i * rounds / kSlices;
        const std::size_t hi = (i + 1) * rounds / kSlices;
        const Mark &a = ph.marks[lo];
        const Mark &b = ph.marks[hi];
        sliceRate.push_back(double(b.jobs - a.jobs) / (b.wallS - a.wallS));
        sliceCpu.push_back(b.cpuS - a.cpuS);
        const std::vector<double> ms(ph.roundMs.begin() + long(lo),
                                     ph.roundMs.begin() + long(hi));
        sliceP50.push_back(percentile(ms, 0.5));
        sliceP95.push_back(percentile(ms, 0.95));
    }
    const double jobsPerS = percentile(sliceRate, 0.5);
    const double cpuS = kSlices * percentile(sliceCpu, 0.5);
    std::printf("# whole phase: jobs_per_s=%.6g cpu_s=%.6g round_p50_ms=%.6g "
                "round_p95_ms=%.6g (%zu rounds)\n",
                double(ph.counts.jobs) / ph.wallS, ph.cpuS,
                percentile(ph.roundMs, 0.5), percentile(ph.roundMs, 0.95),
                rounds);
    const double failedFrac =
        double(ph.failed) / double(std::max<uint64_t>(ph.attempted, 1));
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    const std::vector<Row> e2e = {
        {"jobs_per_s", jobsPerS, "1/s"},
        {"round_p50_ms", percentile(sliceP50, 0.5), "ms"},
        {"round_p95_ms", percentile(sliceP95, 0.5), "ms"},
        {"cpu_s", cpuS, "s"},
        {"setup_s", percentile(setups, 0.5), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"model_hours", ph.counts.modelHours, "model-h"},
        {"model_p95_h", percentile(ph.modelLatH, 0.95), "model-h"},
        {"energy_err_pct", ph.energyErrPct, "%"},
    };
    std::printf("\n%-28s %14s  %s\n", "metric", "value", "unit");
    for (const Row &r : e2e)
        std::printf("%-28s %14.6g  %s\n", r.name.c_str(), r.value, r.unit);
    std::printf("%-28s %14.6g  %s   (%llu of %llu attempted)\n",
                "failed_frac", failedFrac, "1",
                static_cast<unsigned long long>(ph.failed),
                static_cast<unsigned long long>(ph.attempted));
    std::printf("# %zu slices of %zu rounds; setups=%d; timed wall=%.3f s\n",
                kSlices, rounds / kSlices, kSetups, ph.wallS);

    std::vector<Row> layers;
    if (trace) {
        const std::map<std::string, double> got(layerMetrics.begin(),
                                                layerMetrics.end());
        std::printf("\n%-28s %14s  %s\n", "per-layer metric", "value",
                    "unit");
        for (const auto &[m, unit] : kLayerMetrics) {
            const auto it = got.find(m);
            layers.push_back({m, it == got.end() ? 0.0 : it->second, unit});
            std::printf("%-28s %14.6g  %s\n", m, layers.back().value, unit);
        }
    }
    std::ostringstream js;
    for (const Row &r : trace ? layers : e2e)
        js << (js.tellp() ? ", " : "{") << "\"" << r.name
           << "\": {\"value\": " << num(r.value) << ", \"unit\": \""
           << r.unit << "\"}";
    js << "}";
    for (const std::string &n : ph.notes)
        std::fprintf(stderr, "check failed: %s\n", n.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ph.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(ph.attempted),
                static_cast<unsigned long long>(ph.failed), js.str().c_str());
    return ph.failed == 0 ? 0 : 1;
}
