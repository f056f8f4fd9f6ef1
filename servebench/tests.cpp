// servebench/tests.cpp — the benchmark's own rules, pinned: the tail
// percentile, seeded request sequences and the layer-subtraction ledger.
// Run: servebench_tests (exit status 0 = all pass).
#include "ledger.hpp"

#include <cmath>
#include <cstdio>
#include <vector>

namespace sb = servebench;

namespace {

int failures = 0;

void check(bool ok, const char* what, int line)
{
    if (!ok) {
        std::printf("FAIL line %d: %s\n", line, what);
        ++failures;
    }
}
#define CHECK(x) check((x), #x, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void tail_percentile_is_highest_with_ten_beyond()
{
    // p99 needs n >= 1000 (10 samples above the 990th), p90 needs n >= 100.
    CHECK(sb::samples_beyond(1000, 99) == 10);
    CHECK(sb::samples_beyond(999, 99) == 9);
    CHECK(sb::samples_beyond(100, 90) == 10);
    CHECK(sb::samples_beyond(99, 90) == 9);
    CHECK(sb::samples_beyond(500, 98) == 10);
    CHECK(sb::tail_percentile(1000) == 99);
    CHECK(sb::tail_percentile(999) == 98);
    CHECK(sb::tail_percentile(500) == 98);
    CHECK(sb::tail_percentile(499) == 95);
    CHECK(sb::tail_percentile(200) == 95);
    CHECK(sb::tail_percentile(199) == 90);
    CHECK(sb::tail_percentile(100) == 90);
    CHECK(sb::tail_percentile(99) == 50);
    CHECK(sb::tail_percentile(0) == 50);
    // Whatever rung is chosen, at least 10 samples lie beyond it, and every
    // higher rung of the ladder has fewer.
    for (std::size_t n = 100; n < 5000; n += 37) {
        const double p = sb::tail_percentile(n);
        CHECK(sb::samples_beyond(n, p) >= 10);
        for (const double q : sb::k_tail_ladder)
            if (q > p) CHECK(sb::samples_beyond(n, q) < 10);
    }
    // Each workload's fixed rung is the rule applied to its design pool.
    CHECK(sb::tail_rung(sb::workload::hot_zipf) == 99);
    CHECK(sb::tail_rung(sb::workload::cold_j2k) == 98);
    CHECK(sb::tail_rung(sb::workload::progressive_ccsds) == 90);
}

void percentile_is_nearest_rank()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    CHECK(near(sb::percentile(v, 50), 50));
    CHECK(near(sb::percentile(v, 99), 99));
    CHECK(near(sb::percentile(v, 100), 100));
    CHECK(near(sb::percentile({3, 1, 2}, 50), 2));
    CHECK(near(sb::percentile({}, 50), 0));
    CHECK(near(sb::median({5}), 5));
}

std::vector<std::size_t> draw(sb::workload w, std::uint64_t seed, int conn, int n)
{
    sb::sequence s{w, seed, conn};
    std::vector<std::size_t> out;
    for (int i = 0; i < n; ++i) out.push_back(s.at(static_cast<std::uint64_t>(i)));
    return out;
}

void seed_fixes_the_request_sequence()
{
    for (const auto w : {sb::workload::cold_j2k, sb::workload::hot_zipf,
                         sb::workload::progressive_ccsds}) {
        for (int conn = 0; conn < 3; ++conn) {
            CHECK(draw(w, 7, conn, 500) == draw(w, 7, conn, 500));
            CHECK(draw(w, 7, conn, 500) != draw(w, 8, conn, 500));
        }
    }
    // Pinned values: the generator must not change silently, or a seed's
    // inputs and exact counts change with it.
    CHECK(sb::make_rng(1, 0).next() == sb::make_rng(1, 0).next());
    sb::rng r{0};
    CHECK(r.next() == 0xE220A8397B1DCDAFull);

    // cold_j2k: a stream recurs only after every other stream was requested.
    const auto cold = draw(sb::workload::cold_j2k, 3, 0, 3 * static_cast<int>(sb::k_cold_streams));
    for (std::size_t i = 0; i + sb::k_cold_streams < cold.size(); ++i) {
        CHECK(cold[i] == cold[i + sb::k_cold_streams]);
        for (std::size_t j = i + 1; j < i + sb::k_cold_streams; ++j) CHECK(cold[i] != cold[j]);
    }
    // hot_zipf: skewed — the most popular input takes far more than 1/64.
    const auto hot = draw(sb::workload::hot_zipf, 3, 0, 20000);
    std::vector<int> counts(sb::k_hot_streams, 0);
    for (const auto i : hot) {
        CHECK(i < sb::k_hot_streams);
        ++counts[i];
    }
    int top = 0;
    for (const int c : counts) top = std::max(top, c);
    CHECK(top > 20000 / 8);
    // progressive_ccsds: conn 0 walks streams, the others cubes.
    for (const auto i : draw(sb::workload::progressive_ccsds, 3, 0, 50))
        CHECK(i < sb::k_progressive_streams);
    for (const auto i : draw(sb::workload::progressive_ccsds, 3, 2, 50)) CHECK(i < sb::k_cubes);
}

void layer_subtraction()
{
    CHECK(near(sb::self_time(10, 4), 6));
    CHECK(near(sb::self_time(4, 10), 0));  // noise never becomes a cost
    // Per input: median(parent) - median(child); then the median over inputs.
    const std::vector<std::vector<double>> roundtrip{{100, 110, 105}, {50, 52, 51}, {30, 31, 90}};
    const std::vector<std::vector<double>> submit{{80, 81, 82}, {45, 44, 46}, {20, 21, 22}};
    // Differences: 105-81 = 24, 51-45 = 6, 31-21 = 10 -> median 10.
    CHECK(near(sb::ledger_self_time(roundtrip, submit), 10));
    // The layers telescope: net + service + staged = round trip, per input.
    const std::vector<std::vector<double>> staged{{70}, {40}, {15}};
    CHECK(near(sb::ledger_self_time({{105}}, {{81}}) + sb::ledger_self_time({{81}}, {{70}}) + 70,
               105));
    CHECK(near(sb::ledger_self_time(submit, staged), 6));  // 11, 5, 6 -> 6
    CHECK(near(sb::ledger_self_time({}, {}), 0));
    CHECK(near(sb::share(1, 4), 0.25));
    CHECK(near(sb::share(1, 0), 0));
}

void histogram_percentiles_track_the_sample()
{
    // Within the 0.2% bucket width of the exact nearest-rank percentile.
    std::vector<double> v;
    sb::histogram h;
    sb::rng r{5};
    for (int i = 0; i < 20000; ++i) {
        const double ms = 0.05 + 100.0 * r.unit() * r.unit();
        v.push_back(ms);
        h.add(ms);
    }
    CHECK(h.count() == v.size());
    for (const double p : {1.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
        const double exact = sb::percentile(v, p);
        CHECK(std::fabs(h.percentile(p) - exact) <= 0.002 * exact);
    }
    CHECK(near(sb::histogram{}.percentile(50), 0));
    sb::histogram g;
    g.merge(h);
    g.merge(h);
    CHECK(g.count() == 2 * h.count());
    CHECK(std::fabs(g.percentile(50) - h.percentile(50)) <= 0.002 * h.percentile(50));
}

void windowed_rates_and_medians()
{
    // 3.5 s of completions, one per 0.25 s; the first window is slow.  The
    // partial window after 3 s counts in the pooled view only.
    sb::windowed w{1.0, 5};
    for (int i = 0; i < 14; ++i) w.add(0.25 * i, i < 4 ? 100.0 : 1.0);
    CHECK(w.count() == 14);
    CHECK(w.pooled(3.5).count() == 12);  // whole windows only
    CHECK(w.rates(3.5) == (std::vector<double>{4, 4, 4}));
    CHECK(near(w.rate(3.5), 4));
    // One slow window does not move the median of window medians.
    CHECK(std::fabs(w.median(3.5) - 1.0) < 0.002);
    // A phase shorter than a window is read as one window of its length.
    sb::windowed s{1.0, 2};
    for (int i = 0; i < 5; ++i) s.add(0.1 * i, 2.0);
    CHECK(near(s.rate(0.5), 10));
    CHECK(std::fabs(s.median(0.5) - 2.0) < 0.004);
    // Completions after the last window land in it.
    sb::windowed late{1.0, 2};
    late.add(7.5, 1.0);
    CHECK(late.count() == 1);
    // Windows the host stole CPU from are left out of rates and medians.
    const auto keep = sb::clean_windows({0.0, 0.5, 0.0});
    CHECK(keep == (std::vector<bool>{true, false, true}));
    sb::windowed k{1.0, 3};
    for (int i = 0; i < 12; ++i) k.add(0.25 * i, i / 4 == 1 ? 50.0 : 1.0);
    CHECK(std::fabs(k.median(3.0, keep) - 1.0) < 0.002);
    CHECK(k.pooled(3.0, keep).count() == 8);
    CHECK(std::fabs(k.pooled(3.0, keep).percentile(100) - 1.0) < 0.002);
    // At least half the windows always stay, and 2% steal is never cause.
    CHECK(sb::clean_windows({0.3, 0.4, 0.5, 0.6}) == (std::vector<bool>{true, true, false, false}));
    CHECK(sb::clean_windows({0.01, 0.02, 0.0}) == (std::vector<bool>{true, true, true}));
    CHECK(sb::clean_windows({}).empty());
    CHECK(near(sb::interquartile_mean({1, 2, 3, 4, 100, 0, 2, 3}), 2.5));  // drops 0,1 and 4,100
    CHECK(near(sb::interquartile_mean({7}), 7));
    CHECK(near(sb::interquartile_mean({}), 0));
}

}  // namespace

int main()
{
    tail_percentile_is_highest_with_ten_beyond();
    percentile_is_nearest_rank();
    seed_fixes_the_request_sequence();
    layer_subtraction();
    histogram_percentiles_track_the_sample();
    windowed_rates_and_medians();
    if (failures == 0) std::printf("servebench_tests: all passed\n");
    return failures == 0 ? 0 : 1;
}
