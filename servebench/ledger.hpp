// servebench/ledger.hpp — the benchmark's pure arithmetic: seeded request
// sequences, percentiles, the tail-percentile rule and the layer-subtraction
// ledger.  Header-only and free of I/O so tests.cpp can pin every rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace servebench {

/// splitmix64: a tiny, portable generator.  The standard distributions are
/// implementation-defined, so request sequences are drawn from this alone and
/// repeat on every standard library.
class rng {
public:
    explicit rng(std::uint64_t seed) : s_{seed} {}
    std::uint64_t next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1) with 53 bits.
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /// Uniform in [0, n).
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(unit() * n); }

private:
    std::uint64_t s_;
};

/// A generator for one purpose (`stream`) under one benchmark seed.
inline rng make_rng(std::uint64_t seed, std::uint64_t stream)
{
    return rng{seed * 0x100000001B3ull ^ (stream + 1) * 0xD1B54A32D192ED03ull};
}

/// Seeded Fisher–Yates permutation of 0..n-1.
inline std::vector<std::size_t> permutation(std::uint64_t seed, std::uint64_t stream,
                                            std::size_t n)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    rng r = make_rng(seed, stream);
    for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[r.below(i)]);
    return p;
}

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 the most popular).
class zipf {
public:
    zipf(std::size_t n, double s) : cdf_(n)
    {
        double mass = 0.0;
        for (std::size_t i = 0; i < n; ++i) mass += 1.0 / std::pow(double(i + 1), s);
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += 1.0 / std::pow(double(i + 1), s) / mass;
            cdf_[i] = acc;
        }
        cdf_.back() = 1.0;
    }
    std::size_t operator()(rng& r) const
    {
        const double u = r.unit();
        return static_cast<std::size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                                        cdf_.begin());
    }

private:
    std::vector<double> cdf_;
};

enum class workload { cold_j2k, hot_zipf, progressive_ccsds };

[[nodiscard]] inline bool parse_workload(std::string_view s, workload& out)
{
    if (s == "cold_j2k") out = workload::cold_j2k;
    else if (s == "hot_zipf") out = workload::hot_zipf;
    else if (s == "progressive_ccsds") out = workload::progressive_ccsds;
    else return false;
    return true;
}

/// Input-set sizes.  cold_j2k's set is larger than the cache budget holds,
/// hot_zipf's fits it with room to spare (see main.cpp's k_cache_bytes).
inline constexpr std::size_t k_cold_streams = 32;
inline constexpr std::size_t k_hot_streams = 64;
inline constexpr double k_hot_zipf_s = 1.1;
inline constexpr std::size_t k_progressive_streams = 16;
inline constexpr std::size_t k_cubes = 32;

/// The request sequence of one connection: the input index its i-th request
/// uses.  Deterministic in (workload, seed, conn).
///   cold_j2k:  all connections share one global sequence (the caller passes
///              the global request number as `i`, any conn): a seeded
///              permutation walked round-robin, so a stream recurs only after
///              every other stream has been requested once.
///   hot_zipf:  each connection draws zipf(1.1) ranks from its own generator;
///              ranks map to inputs through a seeded permutation, so the hot
///              set differs between seeds.
///   progressive_ccsds: conn 0 walks a permutation of the progressive
///              streams, every other conn a permutation of the cubes.
class sequence {
public:
    sequence(workload w, std::uint64_t seed, int conn)
        : w_{w}, r_{make_rng(seed, 1000 + static_cast<std::uint64_t>(conn))},
          z_{k_hot_streams, k_hot_zipf_s}
    {
        switch (w) {
        case workload::cold_j2k: perm_ = permutation(seed, 1, k_cold_streams); break;
        case workload::hot_zipf: perm_ = permutation(seed, 2, k_hot_streams); break;
        case workload::progressive_ccsds:
            perm_ = conn == 0 ? permutation(seed, 3, k_progressive_streams)
                              : permutation(seed, 4 + static_cast<std::uint64_t>(conn),
                                            k_cubes);
            break;
        }
    }

    /// Index of the `i`-th request.  hot_zipf draws are stateful: call with
    /// i = 0, 1, 2, ... in order.
    std::size_t at(std::uint64_t i)
    {
        if (w_ == workload::hot_zipf) return perm_[z_(r_)];
        return perm_[static_cast<std::size_t>(i % perm_.size())];
    }

private:
    workload w_;
    rng r_;
    zipf z_;
    std::vector<std::size_t> perm_;
};

/// Nearest-rank percentile of a sorted sample (p in (0, 100]).  0 when empty.
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& sorted, double p)
{
    if (sorted.empty()) return 0.0;
    const auto n = sorted.size();
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return sorted[rank - 1];
}

[[nodiscard]] inline double percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, p);
}

[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Mean of the middle half of a sample (a quarter trimmed from each end).
[[nodiscard]] inline double interquartile_mean(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Latency histogram in fixed memory: log-spaced buckets 0.2% wide from 1 us
/// to ~1000 s.  Memory does not grow with the number of requests, so the
/// benchmark's own bookkeeping neither moves the process's peak RSS with
/// throughput nor reallocates inside the timed loop.  A percentile is the
/// nearest-rank bucket, interpolated geometrically by rank inside it: within
/// 0.2% of the exact sample percentile, and a continuous reading.
class histogram {
public:
    static constexpr double k_min_ms = 1e-3;
    static constexpr double k_growth = 1.002;
    static constexpr std::size_t k_buckets = 10400;

    histogram() : counts_(k_buckets, 0) {}

    void add(double ms)
    {
        std::size_t b = 0;
        if (ms > k_min_ms) {
            static const double inv_log_growth = 1.0 / std::log(k_growth);
            b = std::min(k_buckets - 1,
                         static_cast<std::size_t>(std::log(ms / k_min_ms) * inv_log_growth));
        }
        ++counts_[b];
        ++n_;
    }

    void merge(const histogram& o)
    {
        for (std::size_t i = 0; i < k_buckets; ++i) counts_[i] += o.counts_[i];
        n_ += o.n_;
    }

    [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

    /// Nearest-rank percentile (p in (0, 100]); 0 when empty.
    [[nodiscard]] double percentile(double p) const
    {
        if (n_ == 0) return 0.0;
        auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n_) - 1e-9));
        rank = std::clamp<std::uint64_t>(rank, 1, n_);
        std::uint64_t below = 0;
        for (std::size_t b = 0; b < k_buckets; ++b) {
            if (below + counts_[b] >= rank) {
                const double frac = (static_cast<double>(rank - below) - 0.5) / counts_[b];
                return k_min_ms * std::pow(k_growth, static_cast<double>(b) + frac);
            }
            below += counts_[b];
        }
        return k_min_ms * std::pow(k_growth, static_cast<double>(k_buckets));
    }

private:
    std::vector<std::uint32_t> counts_;
    std::uint64_t n_ = 0;
};

/// Which whole windows measure the program rather than its host: on a shared
/// machine the hypervisor can take the CPU away for seconds at a time, which
/// shows as "steal" time.  A window whose stolen share of CPU time exceeds
/// both 2% and the median window's share is left out, so at least half the
/// windows always stay.  An empty input (steal not readable) keeps all.
[[nodiscard]] inline std::vector<bool> clean_windows(const std::vector<double>& steal_share)
{
    const double limit = std::max(0.02, median(steal_share));
    std::vector<bool> keep;
    for (const double s : steal_share) keep.push_back(s <= limit);
    return keep;
}

/// One histogram per fixed window of a timed phase, by completion time; a
/// request completing after the last window counts in it.  Rates and medians
/// are read over the whole windows inside the phase that `keep` marks
/// (interquartile mean of the per-window rates, median of the per-window
/// medians), so a burst of outside load that stalls part of a run moves them
/// little; `pooled` merges the same windows for the tail percentiles.  An
/// empty `keep` keeps every window.  A phase shorter than one window is read
/// as a single window of its own length.
class windowed {
public:
    windowed(double window_s, std::size_t windows) : window_s_{window_s}, w_(std::max<std::size_t>(1, windows)) {}

    void add(double at_s, double ms)
    {
        const auto k = at_s <= 0 ? 0 : static_cast<std::size_t>(at_s / window_s_);
        w_[std::min(k, w_.size() - 1)].add(ms);
    }

    void merge(const windowed& o)
    {
        for (std::size_t i = 0; i < w_.size() && i < o.w_.size(); ++i) w_[i].merge(o.w_[i]);
    }

    /// Every sample, whole windows or not.
    [[nodiscard]] std::uint64_t count() const
    {
        std::uint64_t n = 0;
        for (const auto& x : w_) n += x.count();
        return n;
    }

    [[nodiscard]] histogram pooled(double elapsed_s, const std::vector<bool>& keep = {}) const
    {
        histogram h;
        const auto use = used(elapsed_s, keep);
        if (use.empty())
            for (const auto& x : w_) h.merge(x);
        for (const std::size_t i : use) h.merge(w_[i]);
        return h;
    }

    /// Completions per second.
    [[nodiscard]] double rate(double elapsed_s, const std::vector<bool>& keep = {}) const
    {
        const auto use = used(elapsed_s, keep);
        if (use.empty())
            return elapsed_s > 0 ? static_cast<double>(count()) / elapsed_s : 0.0;
        std::vector<double> rates;
        for (const std::size_t i : use) rates.push_back(static_cast<double>(w_[i].count()) / window_s_);
        return interquartile_mean(std::move(rates));
    }

    /// Median of the per-window medians (empty windows skipped).
    [[nodiscard]] double median(double elapsed_s, const std::vector<bool>& keep = {}) const
    {
        const auto use = used(elapsed_s, keep);
        if (use.empty()) return pooled(elapsed_s).percentile(50);
        std::vector<double> meds;
        for (const std::size_t i : use)
            if (w_[i].count()) meds.push_back(w_[i].percentile(50));
        return servebench::median(std::move(meds));
    }

    /// Per-window completion rates over the whole windows (for display).
    [[nodiscard]] std::vector<double> rates(double elapsed_s) const
    {
        std::vector<double> r;
        for (const std::size_t i : used(elapsed_s, {}))
            r.push_back(static_cast<double>(w_[i].count()) / window_s_);
        return r;
    }

private:
    /// Indices of the whole windows in use; empty when there is none.
    [[nodiscard]] std::vector<std::size_t> used(double elapsed_s, const std::vector<bool>& keep) const
    {
        const std::size_t n = std::min(w_.size(), static_cast<std::size_t>(elapsed_s / window_s_));
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < n; ++i)
            if (keep.empty() || (i < keep.size() && keep[i])) out.push_back(i);
        return out;
    }

    double window_s_;
    std::vector<histogram> w_;
};

/// Samples strictly above the nearest-rank p-th percentile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p)
{
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return n > rank ? n - rank : 0;
}

/// The tail percentile a sample of n supports: the highest of the ladder with
/// at least 10 samples beyond it (50 when none qualifies).
inline constexpr double k_tail_ladder[] = {99.0, 98.0, 95.0, 90.0};
[[nodiscard]] inline double tail_percentile(std::size_t n)
{
    for (const double p : k_tail_ladder)
        if (samples_beyond(n, p) >= 10) return p;
    return 50.0;
}

/// The smallest latency pool a 20-second run of each workload leaves after
/// the steal filter (half its windows), at this design's request rates.
[[nodiscard]] constexpr std::size_t design_tail_pool(workload w)
{
    switch (w) {
    case workload::cold_j2k: return 600;            // ~60 req/s
    case workload::hot_zipf: return 250000;         // ~27k req/s
    case workload::progressive_ccsds: return 110;   // ~11 streams/s
    }
    return 0;
}

/// The tail percentile each workload reports: tail_percentile() of its
/// design pool, so p99 on hot_zipf, p98 on cold_j2k and p90 on
/// progressive_ccsds.  It is fixed per workload rather than re-chosen from
/// each run's count, so a faster program that completes more requests never
/// switches to a higher, slower-reading percentile.
[[nodiscard]] inline double tail_rung(workload w) { return tail_percentile(design_tail_pool(w)); }

/// A layer's self time: its entry point's time minus the time of the layer
/// below it.  A negative difference (the layer below measured longer, which
/// is noise) reads as 0.
[[nodiscard]] inline double self_time(double parent, double child)
{
    return parent > child ? parent - child : 0.0;
}

/// Self time of one layer over a set of inputs: the per-input difference of
/// medians, then the median over inputs.  `parent[i]` and `child[i]` hold the
/// repeats for input i.
[[nodiscard]] inline double ledger_self_time(const std::vector<std::vector<double>>& parent,
                                             const std::vector<std::vector<double>>& child)
{
    std::vector<double> per_input;
    for (std::size_t i = 0; i < parent.size() && i < child.size(); ++i) {
        if (parent[i].empty() || child[i].empty()) continue;
        per_input.push_back(self_time(median(parent[i]), median(child[i])));
    }
    return median(per_input);
}

/// Share of `part` in `whole` (0 when whole is 0).
[[nodiscard]] inline double share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace servebench
