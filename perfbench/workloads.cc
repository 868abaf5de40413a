/**
 * @file
 * The benchmark's four workloads. All are closed loops on the library's
 * virtual model clock, driven from one generator thread; every thread
 * count is fixed by an explicit TaskPool size (or the Router's one
 * TaskPool(1) per node), never by EQC_THREADS or the core count.
 *
 *  serve-1t    One ServiceNode, shards fanned out on a TaskPool(1):
 *              the single-core serving floor. 64 tenants in pairs
 *              alternate VQE and QAOA at 4096 shots; bindings drift
 *              every two rounds, so coalescing and the result cache hit.
 *  serve-3n    The same traffic through a Router over 3 nodes, each
 *              with its own serve thread: consistent hashing, the MPMC
 *              handoff and the barrier drain only show here.
 *  train-vqe   EQC training through Runtime::submit on the "virtual"
 *              engine with engineThreads = 1: the paper's workload.
 *              The serve layer is bypassed.
 *  serve-mint  One ServiceNode serving an evolutionary ansatz search:
 *              fresh ansaetze are registered inside the timed phase,
 *              so transpile, fusion and plan compilation are timed and
 *              the node's per-workload retention shows in peak RSS.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "common/rng.h"
#include "common/task_pool.h"
#include "core/engine.h"
#include "core/eqc.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "hamiltonian/exact.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "probes.h"
#include "serve/router.h"
#include "serve/service_node.h"
#include "vqa/problem.h"

namespace perfbench {

namespace {

using namespace eqc;
using namespace eqc::serve;

/**
 * Seed of the served system itself (node and Router streams). The
 * workload seed shapes only the traffic the system receives.
 */
constexpr uint64_t kSystemSeed = 2026;
constexpr int kShots = 4096;
constexpr int kTenants = 64;
constexpr int kWarmRounds = 6;
constexpr double kCacheTtlH = 0.5;

/** Interval every served energy must fall in. */
struct Range
{
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * [minEigenvalue, maxEigenvalue] of @p h widened by shot noise: eight
 * standard deviations of an estimate whose terms each saw kShots shots
 * (|coefficient| sum / sqrt(shots) bounds one deviation).
 */
Range
energyRange(const PauliSum &h)
{
    const double w = 8.0 * h.coefficientNorm() / std::sqrt(double(kShots));
    return {minEigenvalue(h) - w, maxEigenvalue(h) + w};
}

uint64_t
outcomeHash(const JobOutcome &o)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v :
         {o.jobId, static_cast<uint64_t>(o.tenantId),
          static_cast<uint64_t>(o.workload), bitsOf(o.energy),
          bitsOf(o.variance), bitsOf(o.completeH),
          static_cast<uint64_t>(o.shotsExecuted),
          static_cast<uint64_t>(o.circuitsRun),
          static_cast<uint64_t>(o.coalesced) |
              static_cast<uint64_t>(o.fromCache) << 1})
        h = mix(h, v);
    return h;
}

/** A served job, kept for the untimed accuracy figure. */
struct Served
{
    WorkloadId workload = -1;
    std::vector<double> params;
    double energy = 0.0;
};

/**
 * Error (%) of a served energy against the noiseless expectation at
 * the job's binding, relative to the observable's spectral width so
 * bindings whose ideal energy is near zero stay finite.
 */
double
servedError(const QuantumCircuit &ansatz, const PauliSum &h, const Range &r,
            const Served &j)
{
    const double ideal = idealEnergy(ansatz, h, j.params);
    return 100.0 * std::fabs(j.energy - ideal) / (r.hi - r.lo);
}

/**
 * Output checks of one serve round: every admitted job completes once,
 * with its full shot budget, not degraded or shed, and with a finite
 * energy inside its observable's widened spectrum.
 */
class OutcomeCheck
{
  public:
    void expect(int tenant) { pending_.insert(tenant); }

    void
    check(const JobOutcome &o, const Range &r, Phase &ph)
    {
        const std::string who = "tenant " + std::to_string(o.tenantId);
        if (!pending_.erase(o.tenantId))
            ph.fail(who + ": outcome without a pending job");
        if (o.shotsExecuted != kShots)
            ph.fail(who + ": " + std::to_string(o.shotsExecuted) +
                    " shots executed");
        if (o.degraded || o.shed)
            ph.fail(who + ": degraded or shed outcome");
        if (!std::isfinite(o.energy) || o.energy < r.lo || o.energy > r.hi)
            ph.fail(who + ": energy " + std::to_string(o.energy) +
                    " outside [" + std::to_string(r.lo) + ", " +
                    std::to_string(r.hi) + "]");
    }

    void
    endRound(Phase &ph)
    {
        for (int t : pending_)
            ph.fail("tenant " + std::to_string(t) +
                    ": admitted job never completed");
        pending_.clear();
    }

  private:
    std::set<int> pending_;
};

ServiceCounters
minus(const ServiceCounters &a, const ServiceCounters &b)
{
    ServiceCounters d;
    d.jobsAdmitted = a.jobsAdmitted - b.jobsAdmitted;
    d.jobsRejected = a.jobsRejected - b.jobsRejected;
    d.jobsCoalesced = a.jobsCoalesced - b.jobsCoalesced;
    d.cacheHits = a.cacheHits - b.cacheHits;
    d.workItems = a.workItems - b.workItems;
    d.shardsExecuted = a.shardsExecuted - b.shardsExecuted;
    d.shardsRequeued = a.shardsRequeued - b.shardsRequeued;
    d.shotsExecuted = a.shotsExecuted - b.shotsExecuted;
    d.circuitsExecuted = a.circuitsExecuted - b.circuitsExecuted;
    return d;
}

/**
 * @p q quantile of the change of histogram @p name (summed over every
 * label set) between two scrapes, interpolated inside its bucket.
 */
double
histogramQuantile(const obs::Snapshot &before, const obs::Snapshot &after,
                  const std::string &name, double q)
{
    std::vector<double> bounds;
    std::vector<double> counts;
    for (const obs::MetricSample &m : obs::diff(after, before).samples) {
        if (m.name != name)
            continue;
        bounds = m.bounds;
        counts.resize(m.buckets.size(), 0.0);
        for (std::size_t i = 0; i < m.buckets.size(); ++i)
            counts[i] += static_cast<double>(m.buckets[i]);
    }
    double total = 0.0;
    for (double c : counts)
        total += c;
    if (total <= 0.0)
        return 0.0;
    double seen = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (seen + counts[i] >= q * total && counts[i] > 0.0) {
            const double lo = i == 0 ? 0.0 : bounds[i - 1];
            const double hi = i < bounds.size() ? bounds[i] : lo;
            return lo + (hi - lo) * (q * total - seen) / counts[i];
        }
        seen += counts[i];
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

double
spanMean(const std::map<std::string, Tracer::LayerTime> &l,
         const std::string &name)
{
    auto it = l.find(name);
    return it == l.end() || it->second.count == 0
               ? 0.0
               : it->second.totalS / static_cast<double>(it->second.count);
}

double
spanTotal(const std::map<std::string, Tracer::LayerTime> &l,
          const std::string &name)
{
    auto it = l.find(name);
    return it == l.end() ? 0.0 : it->second.totalS;
}

double
spanSelf(const std::map<std::string, Tracer::LayerTime> &l,
         const std::string &name)
{
    auto it = l.find(name);
    return it == l.end() ? 0.0 : it->second.selfS;
}

double
probe(const Metrics &m, const std::string &name)
{
    for (const auto &kv : m)
        if (kv.first == name)
            return kv.second;
    return 0.0;
}

/**
 * Estimated shares of the device layer inside serving or training
 * time @p spanS: probe time per call times the number of calls the
 * run made. Noise contexts are counted once per @p ctxBuilds and RNG
 * forks as two per shard plus two seedings per circuit.
 */
void
deviceBudget(const Metrics &probes, double circuits, double ctxBuilds,
             double rngForks, double spanS, Metrics &out)
{
    // applyFusedProgram evaluates the symbolic entries itself.
    const double kernels = (probe(probes, "quantum.apply_us") -
                            probe(probes, "sim.entries_us")) *
                           1e-6 * circuits;
    const double entries = probe(probes, "sim.entries_us") * 1e-6 * circuits;
    const double ctx = probe(probes, "device.noise_ctx_us") * 1e-6 * ctxBuilds;
    const double rng = probe(probes, "common.rng_fork_ns") * 1e-9 * rngForks;
    const double busy =
        probe(probes, "device.execute_warm_us") * 1e-6 * circuits + ctx;
    auto share = [&](double s) { return spanS > 0.0 ? s / spanS : 0.0; };
    out.emplace_back("device.busy_share", share(busy));
    out.emplace_back("share.kernels", share(kernels));
    out.emplace_back("share.fused_entries", share(entries));
    out.emplace_back("share.noise_ctx", share(ctx));
    out.emplace_back("share.rng", share(rng));
}

/** The deterministic counts of a serve phase from its counter deltas. */
void
serveCounts(const ServiceCounters &d, Counts &k)
{
    k.circuits = d.circuitsExecuted;
    k.shots = d.shotsExecuted;
    k.workItems = d.workItems;
    k.coalesced = d.jobsCoalesced;
    k.cacheHits = d.cacheHits;
}

/**
 * Per-layer figures every serve workload reports: span means of the
 * @p api ("serve" or "router") submit and drain calls, the counters
 * over the phase, the queue-wait histogram, and the device budget
 * inside the drain spans. With @p lanes nodes draining in parallel the
 * device shares are of node time: wall time times lanes.
 */
void
serveLayers(const std::string &api, const ServiceCounters &d,
            const obs::Snapshot &before, const obs::Snapshot &after,
            const Metrics &probes,
            const std::map<std::string, Tracer::LayerTime> &l, double lanes,
            double wallS, Metrics &out)
{
    const double admitted = double(d.jobsAdmitted);
    const double shards = double(d.shardsExecuted);
    const double circuits = double(d.circuitsExecuted);
    const double drainS = spanTotal(l, api + ".drain");
    out.emplace_back(api + ".submit_us", 1e6 * spanMean(l, api + ".submit"));
    out.emplace_back(api + ".drain_ms", 1e3 * spanMean(l, api + ".drain"));
    out.emplace_back("device.circuits", circuits);
    out.emplace_back("serve.coalesce_ratio", double(d.jobsCoalesced) / admitted);
    out.emplace_back("serve.cache_hit_rate", double(d.cacheHits) / admitted);
    out.emplace_back("serve.shards_per_item",
                     shards / double(std::max<uint64_t>(d.workItems, 1)));
    out.emplace_back("serve.queue_wait_p95_h",
                     histogramQuantile(before, after,
                                       "eqc_service_queue_wait_hours", 0.95));
    out.emplace_back("serve.rejected", double(d.jobsRejected));
    out.emplace_back("serve.requeued", double(d.shardsRequeued));
    out.insert(out.end(), probes.begin(), probes.end());

    // Device time sits inside the drain spans; the rest of a drain is
    // the serving layer's own work (and, routed, the barrier).
    deviceBudget(probes, circuits, shards, 2 * shards + 2 * circuits,
                 lanes * wallS, out);
    const double busy = probe(out, "device.busy_share") * lanes * wallS;
    out.emplace_back("serve.self_share",
                     drainS > 0.0 ? 1.0 - busy / (lanes * drainS) : 0.0);
    out.emplace_back("share.generator", spanSelf(l, "round") / wallS);
    out.emplace_back("share.submit",
                     (spanTotal(l, api + ".submit") +
                      spanTotal(l, "serve.register")) /
                         wallS);
    out.emplace_back("share.drain", drainS / wallS);
}

// ---------------------------------------------------------------------------
// serve-1t / serve-3n: tenant traffic
// ---------------------------------------------------------------------------

/** One served system: a single node or a router, plus its tenants. */
struct TrafficSystem
{
    struct Tenant
    {
        JobRequest req;
        double nextSubmitH = 0.0;
        double base1 = 0.0;
    };
    std::unique_ptr<TaskPool> pool;
    std::unique_ptr<ServiceNode> node;
    std::unique_ptr<Router> router;
    WorkloadId wVqe = -1;
    WorkloadId wQaoa = -1;
    std::vector<Tenant> tenants;
    int nextRound = 0;

    ServiceCounters
    counters() const
    {
        return router ? router->totals() : node->counters();
    }
    obs::Snapshot
    scrape() const
    {
        return router ? router->metricsSnapshot()
                      : node->metrics().snapshot();
    }
};

class TenantTraffic : public Workload
{
  public:
    TenantTraffic(uint64_t seed, int rounds, int nodes)
        : seed_(seed), rounds_(rounds), nodes_(nodes),
          vqe_(makeHeisenbergVqe()), qaoa_(makeRingMaxCutQaoa()),
          vqeRange_(energyRange(vqe_.hamiltonian)),
          qaoaRange_(energyRange(qaoa_.hamiltonian))
    {
    }

    void
    setUp() override
    {
        build(sys_, nodes_ > 0);
        Phase warm;
        play(sys_, kWarmRounds, nullptr, warm);
        warmFailed_ += warm.failed;
    }

    void
    tearDown() override
    {
        stop(sys_);
    }

    Phase
    run(Tracer *tr) override
    {
        Phase ph;
        ph.failed = warmFailed_;
        const ServiceCounters c0 = sys_.counters();
        const RouterCounters r0 =
            sys_.router ? sys_.router->counters() : RouterCounters{};
        shots0_ = nodeShots(sys_);
        scrape0_ = sys_.scrape();
        served_.clear();
        const double cpu0 = cpuNow();
        const double wall0 = wallNow();
        ph.marks.push_back({wall0, cpu0, 0});
        play(sys_, rounds_, tr, ph, &served_);
        ph.wallS = wallNow() - wall0;
        ph.cpuS = cpuNow() - cpu0;
        ph.energyErrPct = meanServedError(sys_);
        delta_ = minus(sys_.counters(), c0);
        serveCounts(delta_, ph.counts);
        if (sys_.router)
            ph.counts.forwards =
                sys_.router->counters().forwards - r0.forwards;
        ph.counts.workloads = 2;
        return ph;
    }

    void
    layers(Phase &ph, const Tracer &tr, Metrics &out) override
    {
        const bool routed = nodes_ > 0;
        const auto l = tr.layers();
        out.emplace_back("serve.workloads", 2.0);
        if (routed) {
            const std::vector<uint64_t> s1 = nodeShots(sys_);
            double mx = 0.0, sum = 0.0;
            for (std::size_t i = 0; i < s1.size(); ++i) {
                const double d = double(s1[i] - shots0_[i]);
                mx = std::max(mx, d);
                sum += d;
            }
            out.emplace_back("router.node_imbalance",
                             sum > 0.0 ? mx / (sum / double(s1.size()))
                                       : 0.0);
            out.emplace_back("router.forwards", double(ph.counts.forwards));
            out.emplace_back("router.cpu_per_wall", ph.cpuS / ph.wallS);
            crossCheckInline(ph);
        }

        ProbeInput in;
        in.devices = evaluationEnsemble();
        in.circuits = {{vqe_.ansatz, vqe_.hamiltonian},
                       {qaoa_.ansatz, qaoa_.hamiltonian}};
        in.params = {sys_.tenants[0].req.params, sys_.tenants[2].req.params};
        in.atH = sys_.tenants[0].nextSubmitH;
        in.shots = kShots;
        in.seed = seed_;
        Metrics probes;
        probeLayers(in, probes);
        serveLayers(routed ? "router" : "serve", delta_, scrape0_,
                    sys_.scrape(), probes, l, routed ? nodes_ : 1, ph.wallS,
                    out);
    }

  private:
    void
    build(TrafficSystem &s, bool threaded) const
    {
        ServiceOptions so;
        so.seed = kSystemSeed;
        so.resultCacheTtlH = kCacheTtlH;
        if (nodes_ > 0) {
            RouterOptions ro;
            ro.threadedDrain = threaded;
            ro.seed = kSystemSeed;
            s.router = std::make_unique<Router>(ro);
            for (int n = 0; n < nodes_; ++n)
                s.router->addNode(evaluationEnsemble(), so);
            s.wVqe = s.router->registerWorkload(vqe_.ansatz,
                                                vqe_.hamiltonian);
            s.wQaoa = s.router->registerWorkload(qaoa_.ansatz,
                                                 qaoa_.hamiltonian);
        } else {
            s.pool = std::make_unique<TaskPool>(1);
            s.node = std::make_unique<ServiceNode>(evaluationEnsemble(), so);
            s.wVqe = s.node->registerWorkload(vqe_.ansatz, vqe_.hamiltonian);
            s.wQaoa =
                s.node->registerWorkload(qaoa_.ansatz, qaoa_.hamiltonian);
        }
        // Tenant pairs share a binding; odd pairs run QAOA. The seed
        // moves each pair's starting binding and first arrival hour.
        Rng rng = Rng(seed_).fork("tenants");
        s.tenants = std::vector<TrafficSystem::Tenant>(kTenants);
        for (int t = 0; t < kTenants; ++t) {
            TrafficSystem::Tenant &tn = s.tenants[std::size_t(t)];
            const int pair = t / 2;
            const bool isQaoa = pair % 2 == 1;
            tn.req.tenantId = t;
            tn.req.workload = isQaoa ? s.wQaoa : s.wVqe;
            tn.req.params = isQaoa ? qaoa_.initialParams : vqe_.initialParams;
            tn.req.shots = kShots;
            tn.req.priority = t % 3;
            if (t % 2 == 0) {
                tn.req.params[0] += 0.05 * pair + rng.uniform(-0.02, 0.02);
                tn.nextSubmitH = rng.uniform(0.0, 0.05);
            } else {
                const TrafficSystem::Tenant &mate = s.tenants[std::size_t(t - 1)];
                tn.req.params[0] = mate.req.params[0];
                tn.nextSubmitH = mate.nextSubmitH;
            }
            tn.base1 = tn.req.params[1 % tn.req.params.size()];
        }
        s.nextRound = 0;
    }

    static void
    stop(TrafficSystem &s)
    {
        if (s.router)
            s.router->stopServe();
        s.router.reset();
        s.node.reset();
        s.pool.reset();
    }

    static std::vector<uint64_t>
    nodeShots(const TrafficSystem &s)
    {
        return s.router ? s.router->nodeShotTotals() : std::vector<uint64_t>{};
    }

    /** Plays @p count closed-loop rounds on @p s. */
    void
    play(TrafficSystem &s, int count, Tracer *tr, Phase &ph,
         std::vector<Served> *served = nullptr) const
    {
        const bool routed = s.router != nullptr;
        const char *submitName = routed ? "router.submit" : "serve.submit";
        const char *drainName = routed ? "router.drain" : "serve.drain";
        double firstH = -1.0;
        double lastH = 0.0;
        OutcomeCheck check;
        for (int i = 0; i < count; ++i, ++s.nextRound) {
            const int r = s.nextRound;
            const double t0 = wallNow();
            Scope round(tr, "round");
            for (TrafficSystem::Tenant &tn : s.tenants) {
                tn.req.submitH = tn.nextSubmitH;
                if (firstH < 0.0 || tn.req.submitH < firstH)
                    firstH = tn.req.submitH;
                // The binding holds for two rounds, so the result cache
                // sees genuine repeats.
                tn.req.params[1 % tn.req.params.size()] =
                    tn.base1 + 0.02 * (r / 2);
                Ticket ticket;
                {
                    Scope sub(tr, submitName);
                    ticket = routed ? s.router->submit(tn.req)
                                    : s.node->submit(tn.req);
                }
                ++ph.attempted;
                if (ticket.admitted())
                    check.expect(tn.req.tenantId);
                else
                    ph.fail("tenant " + std::to_string(tn.req.tenantId) +
                            ": submission rejected");
            }
            std::vector<JobOutcome> outs;
            {
                Scope dr(tr, drainName);
                outs = routed ? s.router->drain() : s.node->drain(s.pool.get());
            }
            for (const JobOutcome &o : outs) {
                check.check(o, o.workload == s.wVqe ? vqeRange_ : qaoaRange_,
                            ph);
                s.tenants[std::size_t(o.tenantId)].nextSubmitH = o.completeH;
                ph.modelLatH.push_back(o.latencyH);
                lastH = std::max(lastH, o.completeH);
                ph.counts.digest += outcomeHash(o);
                ++ph.counts.jobs;
                if (served)
                    served->push_back({o.workload,
                                       s.tenants[std::size_t(o.tenantId)]
                                           .req.params,
                                       o.energy});
            }
            check.endRound(ph);
            ph.marks.push_back({wallNow(), cpuNow(), ph.counts.jobs});
            ph.roundMs.push_back(1e3 * (ph.marks.back().wallS - t0));
        }
        ph.counts.modelHours = lastH - std::max(firstH, 0.0);
    }

    /** Mean servedError() of the jobs served_ holds, untimed. */
    double
    meanServedError(const TrafficSystem &s) const
    {
        double sum = 0.0;
        for (const Served &j : served_) {
            const bool isVqe = j.workload == s.wVqe;
            sum += servedError(isVqe ? vqe_.ansatz : qaoa_.ansatz,
                               isVqe ? vqe_.hamiltonian : qaoa_.hamiltonian,
                               isVqe ? vqeRange_ : qaoaRange_, j);
        }
        return served_.empty() ? 0.0 : sum / double(served_.size());
    }

    /**
     * Replays the warm-up and timed stimulus through an inline Router
     * (no serve threads) and requires the same outcome digest.
     */
    void
    crossCheckInline(Phase &ph) const
    {
        TrafficSystem ref;
        build(ref, false);
        Phase warm, timed;
        play(ref, kWarmRounds, nullptr, warm);
        play(ref, rounds_, nullptr, timed);
        stop(ref);
        if (timed.counts.digest != ph.counts.digest)
            ph.fail("threaded router outcome digest differs from an inline "
                    "Router drain of the same stimulus");
    }

    uint64_t seed_;
    int rounds_;
    int nodes_;
    VqaProblem vqe_;
    VqaProblem qaoa_;
    Range vqeRange_;
    Range qaoaRange_;
    TrafficSystem sys_;
    uint64_t warmFailed_ = 0;
    std::vector<Served> served_;
    ServiceCounters delta_;
    std::vector<uint64_t> shots0_;
    obs::Snapshot scrape0_;
};

// ---------------------------------------------------------------------------
// serve-mint: evolutionary ansatz search
// ---------------------------------------------------------------------------

constexpr int kQubits = 4;
constexpr int kStrata = 3;     ///< layer counts 1, 2 and 3
constexpr int kSurvivors = 6;  ///< two per layer count
constexpr int kSurvivorTenants = 24;
constexpr int kMintTenants = 4;

/** A candidate ansatz: rotation layers joined by entangler layers. */
struct Genome
{
    int layers = 1;
    std::vector<std::array<int, 3>> ent; ///< (a, b, 0 = CX / 1 = CZ)

    int numParams() const { return 2 * kQubits * (layers + 1); }

    QuantumCircuit
    circuit() const
    {
        QuantumCircuit c(kQubits, numParams());
        for (int l = 0; l <= layers; ++l) {
            for (int q = 0; q < kQubits; ++q)
                c.ry(q, ParamExpr::symbol(2 * kQubits * l + q));
            for (int q = 0; q < kQubits; ++q)
                c.rz(q, ParamExpr::symbol(2 * kQubits * l + kQubits + q));
            if (l == layers)
                break;
            for (const auto &e : ent) {
                if (e[2])
                    c.cz(e[0], e[1]);
                else
                    c.cx(e[0], e[1]);
            }
        }
        c.measureAll();
        return c;
    }
};

/**
 * A random entangler pattern: a path through all qubits in random
 * order, each link a CX or a CZ. Every pattern has kQubits - 1 links,
 * so candidates of one layer count cost about the same to transpile
 * and serve, and the work per round does not drift with the search.
 */
Genome
randomGenome(int layers, Rng &rng)
{
    Genome g;
    g.layers = layers;
    std::array<int, kQubits> order = {0, 1, 2, 3};
    for (int i = kQubits - 1; i > 0; --i)
        std::swap(order[std::size_t(i)],
                  order[std::size_t(rng.uniformInt(0, i))]);
    for (int i = 0; i + 1 < kQubits; ++i)
        g.ent.push_back({order[std::size_t(i)], order[std::size_t(i + 1)],
                         rng.uniformInt(0, 1)});
    return g;
}

class ServeMint : public Workload
{
  public:
    ServeMint(uint64_t seed, int rounds)
        : seed_(seed), rounds_(rounds), problem_(makeHeisenbergVqe()),
          range_(energyRange(problem_.hamiltonian))
    {
    }

    void
    setUp() override
    {
        ServiceOptions so;
        so.seed = kSystemSeed;
        so.resultCacheTtlH = kCacheTtlH;
        pool_ = std::make_unique<TaskPool>(1);
        node_ = std::make_unique<ServiceNode>(evaluationEnsemble(), so);
        rng_ = Rng(seed_).fork("mint");
        survivors_.clear();
        circuits_.clear();
        registered_ = 0;
        for (int i = 0; i < kSurvivors; ++i) {
            Member m;
            m.genome = randomGenome(1 + i % kStrata, rng_);
            m.params = randomParams(m.genome.numParams());
            m.wid = registerGenome(m.genome, nullptr);
            survivors_.push_back(std::move(m));
        }
        offsets_ = std::vector<std::vector<double>>(kSurvivorTenants);
        nextSubmitH_.assign(kSurvivorTenants + kMintTenants, 0.0);
        for (double &h : nextSubmitH_)
            h = rng_.uniform(0.0, 0.05);
        Phase warm;
        play(kWarmRounds, nullptr, warm);
        warmFailed_ += warm.failed;
    }

    void
    tearDown() override
    {
        node_.reset();
        pool_.reset();
    }

    Phase
    run(Tracer *tr) override
    {
        Phase ph;
        ph.failed = warmFailed_;
        const ServiceCounters c0 = node_->counters();
        scrape0_ = node_->metrics().snapshot();
        const uint64_t reg0 = registered_;
        served_.clear();
        const double cpu0 = cpuNow();
        const double wall0 = wallNow();
        ph.marks.push_back({wall0, cpu0, 0});
        play(rounds_, tr, ph);
        ph.wallS = wallNow() - wall0;
        ph.cpuS = cpuNow() - cpu0;
        double err = 0.0;
        for (const Served &j : served_)
            err += servedError(circuits_[std::size_t(j.workload)],
                               problem_.hamiltonian, range_, j);
        ph.energyErrPct = served_.empty() ? 0.0 : err / double(served_.size());
        delta_ = minus(node_->counters(), c0);
        serveCounts(delta_, ph.counts);
        ph.counts.workloads = registered_ - reg0;
        return ph;
    }

    void
    layers(Phase &ph, const Tracer &tr, Metrics &out) override
    {
        const auto l = tr.layers();
        out.emplace_back("transpile.register_ms",
                         1e3 * spanMean(l, "serve.register"));
        out.emplace_back("serve.workloads", double(registered_));

        // Probe two current survivors: the minted ansaetze the node
        // serves most, at their own bindings.
        ProbeInput in;
        in.devices = evaluationEnsemble();
        for (int i = 0; i < 2; ++i) {
            in.circuits.push_back({survivors_[std::size_t(i)].genome.circuit(),
                                   problem_.hamiltonian});
            in.params.push_back(survivors_[std::size_t(i)].params);
        }
        in.atH = nextSubmitH_[0];
        in.shots = kShots;
        in.seed = seed_;
        Metrics probes;
        probeLayers(in, probes);
        serveLayers("serve", delta_, scrape0_, node_->metrics().snapshot(),
                    probes, l, 1, ph.wallS, out);
    }

  private:
    struct Member
    {
        Genome genome;
        std::vector<double> params;
        WorkloadId wid = -1;
    };

    std::vector<double>
    randomParams(int n)
    {
        std::vector<double> p(static_cast<std::size_t>(n));
        for (double &v : p)
            v = rng_.uniform(-M_PI, M_PI);
        return p;
    }

    WorkloadId
    registerGenome(const Genome &g, Tracer *tr)
    {
        const QuantumCircuit c = g.circuit();
        WorkloadId id;
        {
            Scope reg(tr, "serve.register");
            id = node_->registerWorkload(c, problem_.hamiltonian);
        }
        ++registered_;
        circuits_.resize(std::size_t(id) + 1);
        circuits_[std::size_t(id)] = c;
        return id;
    }

    /**
     * One round: mint a candidate for a random survivor's layer count
     * and register it, let kMintTenants tenants try it at perturbed
     * bindings while the rest re-evaluate survivors at drifting
     * bindings, then keep the candidate in place of the worse survivor
     * of its layer count if it beat it.
     */
    void
    play(int count, Tracer *tr, Phase &ph)
    {
        double firstH = -1.0;
        double lastH = 0.0;
        OutcomeCheck check;
        for (int i = 0; i < count; ++i) {
            const double t0 = wallNow();
            Scope round(tr, "round");
            const int stratum = rng_.uniformInt(0, kStrata - 1);
            const Member &parent = survivors_[std::size_t(
                stratum + kStrata * rng_.uniformInt(0, 1))];
            // The candidate keeps its parent's layer count and starting
            // binding but draws a fresh entangler pattern: candidates
            // are independent draws, not a drifting lineage.
            Member candidate;
            candidate.genome = randomGenome(parent.genome.layers, rng_);
            candidate.params = parent.params;
            candidate.wid = registerGenome(candidate.genome, tr);

            std::vector<JobRequest> reqs;
            for (int t = 0; t < kSurvivorTenants; ++t) {
                const Member &m = survivors_[std::size_t(t % kSurvivors)];
                std::vector<double> &off = offsets_[std::size_t(t)];
                off.resize(m.params.size(), 0.0);
                JobRequest r;
                r.tenantId = t;
                r.workload = m.wid;
                r.params = m.params;
                for (std::size_t p = 0; p < off.size(); ++p) {
                    off[p] += rng_.normal(0.0, 0.02);
                    r.params[p] += off[p];
                }
                reqs.push_back(std::move(r));
            }
            for (int t = 0; t < kMintTenants; ++t) {
                JobRequest r;
                r.tenantId = kSurvivorTenants + t;
                r.workload = candidate.wid;
                r.params = candidate.params;
                for (double &v : r.params)
                    v += rng_.normal(0.0, 0.1);
                reqs.push_back(std::move(r));
            }
            for (JobRequest &r : reqs) {
                r.shots = kShots;
                r.submitH = nextSubmitH_[std::size_t(r.tenantId)];
                if (firstH < 0.0 || r.submitH < firstH)
                    firstH = r.submitH;
                Ticket ticket;
                {
                    Scope sub(tr, "serve.submit");
                    ticket = node_->submit(r);
                }
                ++ph.attempted;
                if (ticket.admitted())
                    check.expect(r.tenantId);
                else
                    ph.fail("tenant " + std::to_string(r.tenantId) +
                            ": submission rejected");
            }
            std::vector<JobOutcome> outs;
            {
                Scope dr(tr, "serve.drain");
                outs = node_->drain(pool_.get());
            }
            // Selection reads outcomes in tenant order, never in
            // completion order.
            std::vector<double> energy(reqs.size(), 0.0);
            for (const JobOutcome &o : outs) {
                check.check(o, range_, ph);
                nextSubmitH_[std::size_t(o.tenantId)] = o.completeH;
                energy[std::size_t(o.tenantId)] = o.energy;
                ph.modelLatH.push_back(o.latencyH);
                lastH = std::max(lastH, o.completeH);
                ph.counts.digest += outcomeHash(o);
                ++ph.counts.jobs;
                served_.push_back({o.workload,
                                   reqs[std::size_t(o.tenantId)].params,
                                   o.energy});
            }
            check.endRound(ph);
            select(std::move(candidate), stratum, reqs, energy);
            ph.marks.push_back({wallNow(), cpuNow(), ph.counts.jobs});
            ph.roundMs.push_back(1e3 * (ph.marks.back().wallS - t0));
        }
        ph.counts.modelHours = lastH - std::max(firstH, 0.0);
    }

    /**
     * The candidate replaces the worse survivor of its own stratum if it
     * beat it, so the population keeps two ansaetze per layer count.
     */
    void
    select(Member candidate, int stratum, const std::vector<JobRequest> &reqs,
           const std::vector<double> &energy)
    {
        // A survivor's fitness is its best tenant's energy this round;
        // it moves to that tenant's binding (a greedy local step).
        std::vector<double> best(kSurvivors, 1e300);
        for (int t = 0; t < kSurvivorTenants; ++t) {
            const std::size_t s = std::size_t(t % kSurvivors);
            if (energy[std::size_t(t)] < best[s]) {
                best[s] = energy[std::size_t(t)];
                survivors_[s].params = reqs[std::size_t(t)].params;
                offsets_[std::size_t(t)].assign(survivors_[s].params.size(),
                                                0.0);
            }
        }
        double candidateBest = 1e300;
        for (int t = 0; t < kMintTenants; ++t) {
            const std::size_t i = std::size_t(kSurvivorTenants + t);
            if (energy[i] < candidateBest) {
                candidateBest = energy[i];
                candidate.params = reqs[i].params;
            }
        }
        const std::size_t a = std::size_t(stratum);
        const std::size_t worst = best[a] > best[a + kStrata] ? a : a + kStrata;
        if (candidateBest < best[worst]) {
            survivors_[worst] = std::move(candidate);
            for (int t = int(worst); t < kSurvivorTenants; t += kSurvivors)
                offsets_[std::size_t(t)].clear();
        }
    }

    uint64_t seed_;
    int rounds_;
    VqaProblem problem_;
    Range range_;
    std::unique_ptr<TaskPool> pool_;
    std::unique_ptr<ServiceNode> node_;
    Rng rng_;
    std::vector<Member> survivors_;
    std::vector<std::vector<double>> offsets_;
    std::vector<double> nextSubmitH_;
    std::vector<QuantumCircuit> circuits_; ///< by WorkloadId
    std::vector<Served> served_;
    uint64_t registered_ = 0;
    uint64_t warmFailed_ = 0;
    ServiceCounters delta_;
    obs::Snapshot scrape0_;
};

// ---------------------------------------------------------------------------
// train-vqe: EQC training through Runtime::submit
// ---------------------------------------------------------------------------

/**
 * The final energy's error against minEigenvalue, in %: the mean over
 * a run's trainings lies within kEnergyTolPct, each training within
 * kTrainingTolPct. The hardware-efficient ansatz cannot represent the
 * Heisenberg singlet: its reachable minimum sits 17.9% above the exact
 * ground energy, and noisy device estimates add a few percent more
 * (23.4% mean, 1.6% deviation over 400 trainings). A single training
 * can settle in a poorer local minimum (30.0% at seed 20); one that
 * fails to converge stays near its initial energy, far beyond
 * kTrainingTolPct.
 */
constexpr double kEnergyTolPct = 30.0;
constexpr double kTrainingTolPct = 40.0;
constexpr int kEpochs = 250; ///< the paper's VQE epoch count
constexpr int kWarmEpochs = 20;

class EpochObserver : public TraceObserver
{
  public:
    explicit EpochObserver(Tracer *tr) : tr_(tr) {}

    void
    onResult(RunContext &, std::size_t, const GradientResult &,
             double) override
    {
        Scope s(tr_, "core.on_result");
        ++results;
    }

    void
    onEpoch(RunContext &, EpochRecord &rec) override
    {
        Scope s(tr_, "core.on_epoch");
        marks.push_back({wallNow(), cpuNow(), results});
        hours.push_back(rec.timeH);
    }

    uint64_t results = 0;
    std::vector<Mark> marks;
    std::vector<double> hours;

  private:
    Tracer *tr_;
};

/**
 * @p trainings back-to-back EQC trainings of kEpochs epochs each, at
 * seeds derived from the workload seed. Several short trainings rather
 * than one long one keep every run paper-sized and average the final
 * energy error over independent trainings.
 */
class TrainVqe : public Workload
{
  public:
    TrainVqe(uint64_t seed, int trainings)
        : seed_(seed), trainings_(trainings), problem_(makeHeisenbergVqe()),
          minEig_(minEigenvalue(problem_.hamiltonian))
    {
    }

    void
    setUp() override
    {
        devices_ = evaluationEnsemble();
        runtime_ = std::make_unique<Runtime>();
        JobHandle warm =
            runtime_->submit(problem_, devices_, options(kWarmEpochs, 0));
        warm.take();
    }

    void
    tearDown() override
    {
        runtime_.reset();
    }

    Phase
    run(Tracer *tr) override
    {
        Phase ph;
        std::vector<EqcTrace> traces;
        std::vector<EpochObserver> observers(
            static_cast<std::size_t>(trainings_), EpochObserver(tr));
        const double cpu0 = cpuNow();
        const double wall0 = wallNow();
        ph.marks.push_back({wall0, cpu0, 0});
        for (int i = 0; i < trainings_; ++i) {
            JobHandle h;
            {
                Scope s(tr, "runtime.submit");
                h = runtime_->submit(problem_, devices_,
                                     options(kEpochs, uint64_t(i) + 1),
                                     std::vector<TraceObserver *>{
                                         &observers[std::size_t(i)]});
            }
            Scope s(tr, "runtime.take");
            traces.push_back(h.take());
        }
        ph.wallS = wallNow() - wall0;
        ph.cpuS = cpuNow() - cpu0;

        Counts &k = ph.counts;
        epochHours_.clear();
        for (int i = 0; i < trainings_; ++i) {
            const EpochObserver &obs = observers[std::size_t(i)];
            const EqcTrace &trace = traces[std::size_t(i)];
            // One round per onEpoch mark. A training's first round runs
            // from the previous mark (the phase start or the previous
            // training's last epoch), so the gap between trainings is a
            // round too and every mark closes exactly one round.
            for (std::size_t e = 0; e < obs.marks.size(); ++e) {
                Mark m = obs.marks[e];
                m.jobs += k.jobs;
                ph.roundMs.push_back(1e3 * (m.wallS - ph.marks.back().wallS));
                ph.marks.push_back(m);
                if (e > 0)
                    ph.modelLatH.push_back(obs.hours[e] - obs.hours[e - 1]);
            }
            epochHours_.insert(epochHours_.end(), obs.hours.begin(),
                               obs.hours.end());
            k.jobs += obs.results;
            k.circuits += uint64_t(trace.circuitEvaluations);
            k.modelHours += trace.totalHours;
            for (double p : trace.finalParams)
                k.digest = mix(k.digest, bitsOf(p));
            for (const EpochRecord &e : trace.epochs)
                k.digest = mix(k.digest, bitsOf(e.energyDevice));
            ph.energyErrPct += checkTraining(trace, ph) / trainings_;
        }
        if (!(ph.energyErrPct <= kEnergyTolPct))
            ph.fail("mean final energy error " +
                    std::to_string(ph.energyErrPct) + "% above " +
                    std::to_string(kEnergyTolPct) + "%");
        k.gradResults = k.jobs;
        ph.attempted = k.jobs;
        finalParams_ = std::move(traces.back().finalParams);
        return ph;
    }

    void
    layers(Phase &ph, const Tracer &tr, Metrics &out) override
    {
        const auto l = tr.layers();
        const double results = double(ph.counts.gradResults);
        const double circuits = double(ph.counts.circuits);
        out.emplace_back("device.circuits", circuits);
        out.emplace_back("core.results", results);

        ProbeInput in;
        in.devices = devices_;
        in.circuits = {{problem_.ansatz, problem_.hamiltonian}};
        in.params = {finalParams_};
        in.atH = percentile(epochHours_, 0.5);
        in.shots = problem_.shots;
        in.seed = seed_;
        Metrics probes;
        probeLayers(in, probes);
        out.insert(out.end(), probes.begin(), probes.end());

        double epochS = 0.0;
        for (double ms : ph.roundMs)
            epochS += 1e-3 * ms;
        const double gradS = probe(probes, "vqa.grad_us") * 1e-6 * results;
        out.emplace_back("core.self_share",
                         epochS > 0.0 ? 1.0 - gradS / epochS : 0.0);
        // Gradient jobs of one batch share an execution hour: count one
        // noise-context build per gradient result and per epoch energy.
        const double epochs = double(epochHours_.size());
        deviceBudget(probes, circuits, results + epochs,
                     results + 2 * circuits, ph.wallS, out);
        out.emplace_back("share.generator",
                         (ph.wallS - spanTotal(l, "runtime.submit") -
                          spanTotal(l, "runtime.take")) /
                             ph.wallS);
        out.emplace_back("share.engine",
                         spanSelf(l, "runtime.take") / ph.wallS);
        out.emplace_back("share.observer",
                         (spanTotal(l, "core.on_result") +
                          spanTotal(l, "core.on_epoch")) /
                             ph.wallS);
    }

  private:
    EqcOptions
    options(int epochs, uint64_t training) const
    {
        EqcOptions o;
        o.engine = "virtual";
        o.engineThreads = 1;
        o.seed = splitmix64(seed_ * 1000003ULL + training);
        o.master.epochs = epochs;
        return o;
    }

    /**
     * Output checks of one training: it ran every epoch, lowered the
     * energy, and ended near the exact ground state. Returns the final
     * energy's error against minEigenvalue, in percent.
     */
    double
    checkTraining(const EqcTrace &trace, Phase &ph) const
    {
        const double final10 = finalEnergy(trace, 10);
        const double err = errorVsReference(final10, minEig_);
        std::printf("# training: initial %.6f final %.6f error %.4f%%\n",
                    trace.epochs.empty() ? 0.0
                                         : trace.epochs.front().energyDevice,
                    final10, err);
        if (trace.terminated || int(trace.epochs.size()) != kEpochs)
            ph.fail("training stopped after " +
                    std::to_string(trace.epochs.size()) + " epochs");
        else if (!(final10 < trace.epochs.front().energyDevice))
            ph.fail("final energy " + std::to_string(final10) +
                    " not below initial " +
                    std::to_string(trace.epochs.front().energyDevice));
        if (!(err <= kTrainingTolPct))
            ph.fail("final energy " + std::to_string(final10) + " is " +
                    std::to_string(err) + "% from minEigenvalue " +
                    std::to_string(minEig_));
        return err;
    }

    uint64_t seed_;
    int trainings_;
    VqaProblem problem_;
    double minEig_;
    std::vector<Device> devices_;
    std::unique_ptr<Runtime> runtime_;
    std::vector<double> epochHours_;
    std::vector<double> finalParams_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, int seconds)
{
    // Work per timed phase is fixed by --seconds, not by a clock, so the
    // counts repeat exactly at a seed. The rates below give about
    // --seconds of timed work on the reference machine (README.md).
    if (name == "serve-1t")
        return std::make_unique<TenantTraffic>(seed, 30 * seconds, 0);
    if (name == "serve-3n")
        return std::make_unique<TenantTraffic>(seed, 60 * seconds, 3);
    if (name == "train-vqe")
        return std::make_unique<TrainVqe>(seed, seconds);
    if (name == "serve-mint")
        return std::make_unique<ServeMint>(seed, 20 * seconds);
    return nullptr;
}

} // namespace perfbench
