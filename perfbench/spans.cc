#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    // VmHWM belongs to this program image; getrusage's ru_maxrss would
    // carry over the high-water mark of the process that exec'd us.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0.0;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double f = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * f;
}

uint64_t
mix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
bitsOf(double x)
{
    uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

std::string
Counts::str() const
{
    std::ostringstream s;
    char mh[64];
    std::snprintf(mh, sizeof mh, "%.17g", modelHours);
    s << "jobs=" << jobs << " circuits=" << circuits << " shots=" << shots
      << " work_items=" << workItems << " coalesced=" << coalesced
      << " cache_hits=" << cacheHits << " forwards=" << forwards
      << " grad_results=" << gradResults << " workloads=" << workloads
      << " model_hours=" << mh << " digest=" << std::hex << digest;
    return s.str();
}

void
Phase::fail(const std::string &why)
{
    ++failed;
    if (notes.size() < 16)
        notes.push_back(why);
}

Tracer::Tracer() { spans_.reserve(1 << 16); }

int
Tracer::begin(const char *name)
{
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, wallNow(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int id)
{
    spans_[static_cast<std::size_t>(id)].endS = wallNow();
    open_.pop_back();
}

std::map<std::string, Tracer::LayerTime>
Tracer::layers() const
{
    // Children never outlive their parent and siblings never overlap
    // (one thread), so the covered part of a span is the sum of its
    // direct children's durations.
    std::vector<double> childS(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childS[static_cast<std::size_t>(s.parent)] += s.endS - s.startS;
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        LayerTime &l = out[spans_[i].name];
        const double d = spans_[i].endS - spans_[i].startS;
        ++l.count;
        l.totalS += d;
        l.selfS += d - childS[i];
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().startS;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                     "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     i, s.name, s.parent, (s.startS - t0) * 1e6,
                     (s.endS - t0) * 1e6);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
