// servebench — one J2NE serving benchmark with a per-layer ledger.
//
// Drives J2NE requests over loopback against an in-process
// runtime::net::server backed by one decode_service (result cache on) with an
// ops_server attached.  Every workload is a closed loop: each client thread
// owns one blocking connection and sends its next request only after the
// previous reply, because J2NE callers block on each reply.
//
//   servebench --workload <cold_j2k|hot_zipf|progressive_ccsds> --seed N
//              --seconds S --trace <0|1> [--trace-out PATH]
//   servebench --list-metrics
//
// --trace 0 prints the end-to-end metrics of one untimed set-up and one timed
// closed loop.  --trace 1 runs the loop twice (untraced, then with the
// benchmark's own spans around each request), then a per-layer probe that
// times calls into each module's public functions for the same inputs, and
// prints the per-layer metrics.  The last stdout line is always the result
// object {"correct", "attempted", "failed", "metrics"}.
#include "ledger.hpp"
#include "spans.hpp"

#include <ccsds/ccsds123.hpp>
#include <j2k/codec.hpp>
#include <j2k/image.hpp>
#include <j2k/kernels.hpp>
#include <j2k/session.hpp>
#include <runtime/cache/decoded_cache.hpp>
#include <runtime/hash.hpp>
#include <runtime/metrics.hpp>
#include <runtime/net/client.hpp>
#include <runtime/net/server.hpp>
#include <runtime/ops/http_client.hpp>
#include <runtime/ops/ops_server.hpp>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace sb = servebench;
namespace net = runtime::net;
namespace ops = runtime::ops;
using sb::clk;
using sb::workload;

// ---------------------------------------------------------------------------
// Fixed configuration shared by every workload.

/// Result-cache budget: holds hot_zipf's working set (64 decoded 64x64x3
/// images, ~3 MiB) but only ~10 of cold_j2k's 32 decoded 256x256x3 images, so
/// cold_j2k's round-robin never finds a stream still cached.
constexpr std::size_t k_cache_bytes = 8u << 20;
constexpr int k_setup_reps = 7;
constexpr int k_probe_inputs = 8;
constexpr int k_probe_reps = 3;
constexpr int k_progressive_layers = 6;
constexpr auto k_scrape_period = std::chrono::milliseconds{100};  // 10 Hz

int host_threads()
{
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double ms_between(clk::time_point a, clk::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Metric tables: the single list emission iterates, so a metric in the table
// is either emitted with its unit or the run fails loudly.

struct metric_def {
    const char* name;
    const char* unit;
};

const std::vector<metric_def>& end_to_end_defs()
{
    static const std::vector<metric_def> defs{
        {"setup_s", "s"},
        {"throughput_rps", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p95_ms", "ms"},
        {"latency_tail_ms", "ms"},
        {"first_layer_p50_ms", "ms"},
        {"first_layer_p95_ms", "ms"},
        {"batch_rps", "1/s"},
        {"batch_latency_p50_ms", "ms"},
        {"rss_peak_mb", "MB"},
    };
    return defs;
}

const std::vector<metric_def>& per_layer_defs()
{
    static const std::vector<metric_def> defs{
        {"j2k.tier1_ms.53", "ms"},
        {"j2k.tier1_ms.97", "ms"},
        {"j2k.tier1_ns_per_mq", "ns"},
        {"j2k.mq_decisions_per_image", "count"},
        {"j2k.iq_ns_per_sample", "ns"},
        {"j2k.idwt_ns_per_sample.53", "ns"},
        {"j2k.idwt_ns_per_sample.97", "ns"},
        {"j2k.finish_ns_per_sample", "ns"},
        {"j2k.share.tier1.53", "ratio"},
        {"j2k.share.iq.53", "ratio"},
        {"j2k.share.idwt.53", "ratio"},
        {"j2k.share.finish.53", "ratio"},
        {"j2k.share.tier1.97", "ratio"},
        {"j2k.share.iq.97", "ratio"},
        {"j2k.share.idwt.97", "ratio"},
        {"j2k.share.finish.97", "ratio"},
        {"j2k.session_first_layer_ms", "ms"},
        {"j2k.session_total_ms", "ms"},
        {"j2k.t1_segment_bytes_per_stream", "bytes"},
        {"ccsds.decode_ms_per_cube", "ms"},
        {"ccsds.ns_per_sample", "ns"},
        {"cache.lookup_hit_us", "us"},
        {"cache.hit_ratio", "ratio"},
        {"cache.collapses", "count"},
        {"cache.evictions_per_req", "1/req"},
        {"service.overhead_us", "us"},
        {"service.job_p50_us", "us"},
        {"service.job_p99_us", "us"},
        {"service.interactive_p99_us", "us"},
        {"service.batch_p99_us", "us"},
        {"service.queue_high_water", "count"},
        {"service.steals_per_job", "1/job"},
        {"service.jobs_promoted", "count"},
        {"service.arena_fallback_allocs", "count"},
        {"service.rejected", "count"},
        {"net.overhead_us", "us"},
        {"net.encode_raw_us", "us"},
        {"net.bytes_in_per_req", "bytes"},
        {"net.bytes_out_per_req", "bytes"},
        {"net.jobs_per_pool_submission", "ratio"},
        {"net.bad_frames", "count"},
        {"ops.scrape_ms", "ms"},
        {"ops.scrape_bytes", "bytes"},
        {"trace.overhead_pct", "%"},
    };
    return defs;
}

std::string json_number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

/// {"name": {"value": v, "unit": u}, ...} in table order.  Throws when the
/// table names a metric the run did not produce.
std::string metrics_json(const std::vector<metric_def>& defs,
                         const std::map<std::string, double>& values)
{
    std::string out = "{";
    for (const auto& d : defs) {
        const auto it = values.find(d.name);
        if (it == values.end())
            throw std::logic_error{std::string{"metric not produced: "} + d.name};
        if (out.size() > 1) out += ", ";
        out += json_string(d.name) + ": {\"value\": " + json_number(it->second) +
               ", \"unit\": " + json_string(d.unit) + "}";
    }
    return out + "}";
}

// ---------------------------------------------------------------------------
// Inputs: generated from the seed, decoded locally through the public
// one-shot paths for the expected response bytes.  None of this is timed.

struct input {
    std::vector<std::uint8_t> cs;
    std::uint8_t codec = 0;  ///< wire id: 0 j2k, 1 ccsds123
    bool lossy = false;      ///< j2k 9/7 (else 5/3)
    bool progressive = false;
    bool bypass = false;
    std::uint8_t prio = 1;  ///< 0 interactive, 1 batch
    /// Expected raw payload of each response frame (one per quality layer
    /// for progressive requests, one otherwise).
    std::vector<std::vector<std::uint8_t>> expected;
    std::uint64_t mq_decisions = 0;      ///< one-shot decode, whole image
    std::uint64_t t1_segment_bytes = 0;  ///< full-depth session
    std::uint64_t samples = 0;           ///< decoded samples across frames
    bool lossless_ok = true;             ///< ccsds: decoded == source cube
};

struct input_set {
    std::vector<input> primary;  ///< j2k streams (plain or progressive)
    std::vector<input> cubes;    ///< CCSDS-123 cubes (progressive_ccsds only)
};

std::uint32_t content_seed(std::uint64_t seed, std::uint64_t kind, std::size_t i)
{
    sb::rng r = sb::make_rng(seed, 100 + kind * 1000 + i);
    return static_cast<std::uint32_t>(r.next());
}

input make_j2k_input(std::uint64_t seed, std::size_t i, int size, int layers, bool lossy)
{
    input in;
    in.lossy = lossy;
    j2k::codec_params p;
    p.tile_width = 64;
    p.tile_height = 64;
    p.mode = lossy ? j2k::wavelet::w9_7 : j2k::wavelet::w5_3;
    p.quality_layers = layers;
    const j2k::image src = j2k::make_test_image(size, size, 3, 8,
                                                content_seed(seed, layers > 1 ? 2 : 1, i));
    in.cs = j2k::encode(src, p);
    j2k::decode_stats st;
    const j2k::image full = j2k::decode(in.cs, &st);
    in.mq_decisions = st.t1.mq_decisions;
    if (layers > 1) {
        j2k::decode_session s{in.cs};
        for (int l = 1; l <= s.total_layers(); ++l) {
            const j2k::image img = s.advance_to(l);
            in.samples += static_cast<std::uint64_t>(img.width()) * img.height() *
                          img.components();
            in.expected.push_back(net::encode_image_raw(img));
        }
        in.t1_segment_bytes = s.tier1_segment_bytes();
        in.lossless_ok = in.expected.back() == net::encode_image_raw(full);
    } else {
        in.samples = static_cast<std::uint64_t>(full.width()) * full.height() *
                     full.components();
        in.expected.push_back(net::encode_image_raw(full));
    }
    return in;
}

input make_cube_input(std::uint64_t seed, std::size_t i)
{
    input in;
    in.codec = ccsds::k_codec_wire_id;
    in.bypass = true;
    const codec::image src = codec::make_test_image(128, 128, 8, 12, content_seed(seed, 3, i));
    in.cs = ccsds::encode(src);
    const codec::image out = ccsds::decode(in.cs);
    in.lossless_ok = out == src;
    in.samples = static_cast<std::uint64_t>(out.width()) * out.height() * out.components();
    in.expected.push_back(net::encode_image_raw(out));
    return in;
}

/// Run fn(i) for i in [0, n) on the host's threads.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> ts;
    const auto nt = std::min<std::size_t>(n, static_cast<std::size_t>(host_threads()));
    std::exception_ptr err;
    std::mutex err_m;
    for (std::size_t t = 0; t < nt; ++t)
        ts.emplace_back([&] {
            try {
                for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
            } catch (...) {
                std::lock_guard lk{err_m};
                err = std::current_exception();
            }
        });
    for (auto& t : ts) t.join();
    if (err) std::rethrow_exception(err);
}

input_set make_inputs(workload w, std::uint64_t seed)
{
    input_set set;
    switch (w) {
    case workload::cold_j2k:
        set.primary.resize(sb::k_cold_streams);
        parallel_for(set.primary.size(), [&](std::size_t i) {
            set.primary[i] = make_j2k_input(seed, i, 256, 1, i % 2 == 1);
        });
        break;
    case workload::hot_zipf:
        set.primary.resize(sb::k_hot_streams);
        parallel_for(set.primary.size(), [&](std::size_t i) {
            set.primary[i] = make_j2k_input(seed, i, 64, 1, i % 2 == 1);
        });
        break;
    case workload::progressive_ccsds:
        set.primary.resize(sb::k_progressive_streams);
        set.cubes.resize(sb::k_cubes);
        parallel_for(set.primary.size() + set.cubes.size(), [&](std::size_t i) {
            if (i < set.primary.size()) {
                input in = make_j2k_input(seed, i, 256, k_progressive_layers, i % 2 == 1);
                in.progressive = true;
                in.bypass = true;
                in.prio = 0;
                set.primary[i] = std::move(in);
            } else {
                set.cubes[i - set.primary.size()] = make_cube_input(seed, i - set.primary.size());
            }
        });
        break;
    }
    return set;
}

// ---------------------------------------------------------------------------
// The serving stack under test.

struct stack {
    std::unique_ptr<net::server> srv;
    std::unique_ptr<ops::ops_server> ops;  ///< references srv's service

    ~stack()
    {
        if (ops) ops->stop();
        ops.reset();
        if (srv) srv->stop();
    }
};

std::unique_ptr<stack> make_stack()
{
    auto st = std::make_unique<stack>();
    net::server_config cfg;
    cfg.service.workers = host_threads();
    cfg.service.cache_bytes = k_cache_bytes;
    st->srv = std::make_unique<net::server>(cfg);
    st->srv->start();
    st->ops = std::make_unique<ops::ops_server>(st->srv->service());
    net::server* srv = st->srv.get();
    st->ops->set_extra_counters([srv] {
        const auto s = srv->stats();
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"net_frames_in_total", s.frames_in},
            {"net_responses_out_total", s.responses_out},
            {"net_bytes_in_total", s.bytes_in},
            {"net_bytes_out_total", s.bytes_out},
            {"net_bad_frames_total", s.bad_frames},
        };
    });
    st->ops->start();
    if (ops::http_get("127.0.0.1", st->ops->port(), "/readyz").status != 200)
        throw std::runtime_error{"ops plane not ready"};
    return st;
}

net::request make_request(const input& in, std::uint32_t id)
{
    net::request r;
    r.codestream = in.cs;
    r.priority = in.prio;
    r.request_id = id;
    r.progressive = in.progressive;
    r.cache_bypass = in.bypass;
    r.codec = in.codec;
    return r;
}

bool same_bytes(std::span<const std::uint8_t> got, const std::vector<std::uint8_t>& want)
{
    return got.size() == want.size() && std::memcmp(got.data(), want.data(), want.size()) == 0;
}

/// One request's outcome, as the client saw it.
struct outcome {
    bool ok = false;
    double first_ms = 0;  ///< send → first complete response frame
    double total_ms = 0;  ///< send → last byte of the last frame
};

/// Send one request on `cli` and check every frame against the expected
/// bytes.  A non-ok status, a missing frame or a wrong byte is a failure.
outcome issue(net::client& cli, const input& in, std::uint32_t id, sb::span_buffer* buf,
              std::uint64_t request)
{
    outcome o;
    const auto t0 = clk::now();
    sb::scoped_span root{buf, "net.roundtrip", request, 1, 0};
    const net::request req = make_request(in, id);
    try {
        if (in.progressive) {
            std::size_t frames = 0;
            bool frames_ok = true;
            clk::time_point first{};
            const net::response last = cli.decode_progressive(req, [&](const net::layer_frame& lf) {
                if (frames == 0) {
                    first = clk::now();
                    if (buf) buf->spans.push_back({"net.first_frame", request, 2, 1, t0, first});
                }
                frames_ok = frames_ok && lf.layer == static_cast<int>(frames) + 1 &&
                            frames < in.expected.size() &&
                            same_bytes(lf.image, in.expected[frames]);
                ++frames;
            });
            const auto t1 = clk::now();
            o.ok = frames_ok && frames == in.expected.size() && last.st == net::status::streaming;
            o.first_ms = ms_between(t0, first);
            o.total_ms = ms_between(t0, t1);
        } else {
            const net::response r = cli.decode(req);
            const auto t1 = clk::now();
            o.ok = r.ok() && same_bytes(r.payload, in.expected.front());
            o.first_ms = o.total_ms = ms_between(t0, t1);
        }
    } catch (const std::exception&) {
        o.ok = false;
    }
    return o;
}

struct tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    void add(bool ok)
    {
        ++attempted;
        if (!ok) ++failed;
    }
    void add(const tally& o)
    {
        attempted += o.attempted;
        failed += o.failed;
    }
};

/// The deterministic warm-up that ends every set-up: cold_j2k decodes the
/// first few streams of its sequence, hot_zipf every entry of its working
/// set (so the timed phase is all hits), progressive_ccsds one stream and
/// one cube.  Returns the number of requests sent.
std::uint64_t warm_up(stack& st, const input_set& in, workload w, std::uint64_t seed,
                      tally& t)
{
    net::client cli{"127.0.0.1", st.srv->port()};
    std::vector<const input*> order;
    switch (w) {
    case workload::cold_j2k: {
        sb::sequence seq{w, seed, 0};
        for (std::uint64_t i = 0; i < 4; ++i) order.push_back(&in.primary[seq.at(i)]);
        break;
    }
    case workload::hot_zipf:
        for (const auto& x : in.primary) order.push_back(&x);
        break;
    case workload::progressive_ccsds:
        order.push_back(&in.primary[sb::sequence{w, seed, 0}.at(0)]);
        order.push_back(&in.cubes[sb::sequence{w, seed, 1}.at(0)]);
        break;
    }
    std::uint32_t id = 0;
    for (const input* x : order) t.add(issue(cli, *x, id++, nullptr, 0).ok);
    return order.size();
}

// ---------------------------------------------------------------------------
// The closed loop.

/// Successful requests of one phase, by kind, per one-second window of
/// completion time (fixed memory: see sb::histogram).
constexpr double k_window_s = 1.0;

struct phase_latency {
    explicit phase_latency(double seconds)
        : total{k_window_s, static_cast<std::size_t>(seconds / k_window_s) + 2},
          first{total},
          cube{total}
    {
    }
    void merge(const phase_latency& o)
    {
        total.merge(o.total);
        first.merge(o.first);
        cube.merge(o.cube);
    }
    sb::windowed total;  ///< primary requests: send → last frame
    sb::windowed first;  ///< primary requests: send → first frame
    sb::windowed cube;   ///< CCSDS requests: send → reply
};

struct phase_result {
    explicit phase_result(double seconds) : lat{seconds} {}
    phase_latency lat;
    tally t;
    double elapsed_s = 0;
    std::vector<double> steal;  ///< per whole window: share of CPU time stolen
};

/// Host CPU time from /proc/stat (all CPUs, in clock ticks); zeros when it
/// cannot be read.
struct cpu_jiffies {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};

cpu_jiffies read_cpu_jiffies()
{
    std::ifstream f{"/proc/stat"};
    std::string cpu;
    std::uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
    if (!(f >> cpu) || cpu != "cpu") return {};
    for (auto& x : v)
        if (!(f >> x)) return {};
    cpu_jiffies j;
    for (const auto x : v) j.total += x;
    j.steal = v[7];
    return j;
}

/// Per-run client state carried across phases, so a traced phase continues
/// each connection's request sequence instead of restarting it.
struct load_state {
    std::vector<sb::sequence> seqs;
    std::vector<std::uint64_t> next;        ///< per-connection request counter
    std::atomic<std::uint64_t> cold_next{0};  ///< cold_j2k's shared counter
};

int connections(workload w)
{
    return w == workload::progressive_ccsds ? 3 : std::min(4, host_threads());
}

phase_result run_phase(stack& st, const input_set& in, workload w, load_state& ls,
                       double seconds, sb::span_log* log, std::uint64_t phase_tag)
{
    const int n = connections(w);
    std::vector<phase_result> per(static_cast<std::size_t>(n), phase_result{seconds});
    std::vector<clk::time_point> last_end(static_cast<std::size_t>(n));
    std::vector<sb::span_buffer*> bufs(static_cast<std::size_t>(n), nullptr);
    if (log)
        for (int c = 0; c < n; ++c) bufs[static_cast<std::size_t>(c)] = &log->buffer(1 + c);

    std::atomic<int> connected{0};
    std::atomic<bool> go{false};
    clk::time_point start{}, deadline{};
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c)
        threads.emplace_back([&, c] {
            const auto uc = static_cast<std::size_t>(c);
            phase_result& r = per[uc];
            std::unique_ptr<net::client> cli;
            try {
                cli = std::make_unique<net::client>("127.0.0.1", st.srv->port());
            } catch (const std::exception&) {
            }
            connected.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
            last_end[uc] = start;
            if (!cli) {
                r.t.add(false);
                return;
            }
            const bool scraper = w == workload::hot_zipf && c == 0;
            auto next_scrape = start + k_scrape_period;
            sb::sequence& seq = ls.seqs[uc];
            while (clk::now() < deadline) {
                const std::uint64_t i = ls.next[uc]++;
                const input* x = nullptr;
                if (w == workload::cold_j2k)
                    x = &in.primary[seq.at(ls.cold_next.fetch_add(1))];
                else if (w == workload::progressive_ccsds && c > 0)
                    x = &in.cubes[seq.at(i)];
                else
                    x = &in.primary[seq.at(i)];
                const std::uint64_t request = (phase_tag << 48) | (std::uint64_t(c) << 40) | i;
                const outcome o = issue(*cli, *x, static_cast<std::uint32_t>(i),
                                        bufs[uc], request);
                last_end[uc] = clk::now();
                r.t.add(o.ok);
                if (o.ok) {
                    const double at = std::chrono::duration<double>(last_end[uc] - start).count();
                    if (x->codec != 0) {
                        r.lat.cube.add(at, o.total_ms);
                    } else {
                        r.lat.total.add(at, o.total_ms);
                        r.lat.first.add(at, o.first_ms);
                    }
                }
                if (scraper && last_end[uc] >= next_scrape) {
                    next_scrape = last_end[uc] + k_scrape_period;
                    bool ok = false;
                    try {
                        const auto resp = ops::http_get("127.0.0.1", st.ops->port(), "/metrics");
                        ok = resp.status == 200 && !resp.body.empty();
                    } catch (const std::exception&) {
                    }
                    r.t.add(ok);
                }
            }
        });
    while (connected.load() < n) std::this_thread::yield();
    start = clk::now();
    deadline = start + std::chrono::duration_cast<clk::duration>(
                           std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    // Steal time at every window boundary; the sampler ends by the deadline.
    std::vector<cpu_jiffies> marks{read_cpu_jiffies()};
    std::thread sampler{[&] {
        const auto windows = static_cast<int>(seconds / k_window_s);
        for (int k = 1; k <= windows; ++k) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<clk::duration>(
                            std::chrono::duration<double>(k * k_window_s)));
            marks.push_back(read_cpu_jiffies());
        }
    }};
    for (auto& t : threads) t.join();
    sampler.join();

    phase_result out{seconds};
    for (std::size_t k = 1; k < marks.size(); ++k) {
        const double total = static_cast<double>(marks[k].total - marks[k - 1].total);
        if (marks[k].total == 0 || marks[k - 1].total == 0 || total <= 0) {
            out.steal.clear();  // not readable: keep every window
            break;
        }
        out.steal.push_back(static_cast<double>(marks[k].steal - marks[k - 1].steal) / total);
    }
    clk::time_point end = start;
    for (std::size_t c = 0; c < per.size(); ++c) {
        end = std::max(end, last_end[c]);
        out.t.add(per[c].t);
        out.lat.merge(per[c].lat);
    }
    out.elapsed_s = std::chrono::duration<double>(end - start).count();
    return out;
}

/// The end-to-end metrics of one timed phase.  Rates and medians are read
/// over one-second windows (sb::windowed); the p95 and tail percentiles pool
/// the whole phase, because a window holds too few samples for them.
std::map<std::string, double> end_to_end(const phase_result& r, workload w, double setup_s)
{
    const double secs = r.elapsed_s;
    const std::vector<bool> keep = sb::clean_windows(r.steal);
    const sb::histogram total = r.lat.total.pooled(secs, keep);
    const sb::histogram first = r.lat.first.pooled(secs, keep);
    // Batch-priority requests: every request on cold_j2k and hot_zipf, the
    // CCSDS cubes on progressive_ccsds (its progressive streams are
    // interactive).
    const sb::windowed& batch = r.lat.cube.count() ? r.lat.cube : r.lat.total;
    sb::windowed all = r.lat.total;
    all.merge(r.lat.cube);
    std::map<std::string, double> m;
    m["setup_s"] = setup_s;
    m["throughput_rps"] = all.rate(secs, keep);
    m["latency_p50_ms"] = r.lat.total.median(secs, keep);
    m["latency_p95_ms"] = total.percentile(95);
    m["latency_tail_ms"] = total.percentile(sb::tail_rung(w));
    m["first_layer_p50_ms"] = r.lat.first.median(secs, keep);
    m["first_layer_p95_ms"] = first.percentile(95);
    m["batch_rps"] = batch.rate(secs, keep);
    m["batch_latency_p50_ms"] = batch.median(secs, keep);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m["rss_peak_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return m;
}

// ---------------------------------------------------------------------------
// The per-layer probe (traced run only).  Each probe request is sent three
// ways with one request id: over J2NE (net.roundtrip), in-process through
// decode_service::submit (service.submit), and as the staged calls the
// service makes for it (j2k stages, a decode_session, ccsds::decode, or a
// cache lookup for hits).  A layer's self time is its span minus the layer
// below, per input, median over inputs (ledger.hpp).

struct stage_times {
    double tier1_ns = 0, iq_ns = 0, idwt_ns = 0, finish_ns = 0;
    std::uint64_t mq = 0, coeff_samples = 0, image_samples = 0;
};

/// The Figure-1 stage chain for one plain or layered j2k stream, tiles fanned
/// out over the host's threads as decode_service does.  Stage spans are
/// recorded per worker thread.
j2k::image staged_j2k(const input& in, std::vector<sb::span_buffer*>& bufs,
                      sb::span_buffer* main_buf, std::uint64_t request, std::uint32_t parent,
                      stage_times& out)
{
    const j2k::decoder dec{in.cs};
    const auto& info = dec.info();
    const auto grid = dec.tiles();
    j2k::image img{info.width, info.height, info.components, info.bit_depth};
    const std::size_t nw = std::min(bufs.size(), grid.size());
    std::vector<stage_times> per(nw);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> ts;
    for (std::size_t wkr = 0; wkr < nw; ++wkr)
        ts.emplace_back([&, wkr] {
            stage_times& s = per[wkr];
            sb::span_buffer* b = bufs[wkr];
            for (std::size_t t; (t = next.fetch_add(1)) < grid.size();) {
                const std::uint32_t id = static_cast<std::uint32_t>(100 + 4 * t);
                j2k::tier1_stats t1;
                auto a = clk::now();
                const j2k::tile_coeffs tc = dec.entropy_decode(static_cast<int>(t), &t1);
                auto z = clk::now();
                b->spans.push_back({"j2k.tier1", request, id, parent, a, z});
                s.tier1_ns += std::chrono::duration<double, std::nano>(z - a).count();
                s.mq += t1.mq_decisions;
                a = clk::now();
                const j2k::tile_wavelet tw = dec.dequantize(tc);
                z = clk::now();
                b->spans.push_back({"j2k.iq", request, id + 1, parent, a, z});
                s.iq_ns += std::chrono::duration<double, std::nano>(z - a).count();
                a = clk::now();
                const j2k::tile_pixels tp = dec.idwt(tw);
                z = clk::now();
                b->spans.push_back({"j2k.idwt", request, id + 2, parent, a, z});
                s.idwt_ns += std::chrono::duration<double, std::nano>(z - a).count();
                for (const auto& pl : tc.comps) s.coeff_samples += pl.size();
                for (int c = 0; c < info.components; ++c)
                    j2k::insert_tile(img.comp(c), tp.comps[static_cast<std::size_t>(c)], grid[t]);
            }
        });
    for (auto& t : ts) t.join();
    const auto a = clk::now();
    dec.finish(img);
    const auto z = clk::now();
    main_buf->spans.push_back({"j2k.finish", request, 99, parent, a, z});
    for (const auto& s : per) {
        out.tier1_ns += s.tier1_ns;
        out.iq_ns += s.iq_ns;
        out.idwt_ns += s.idwt_ns;
        out.mq += s.mq;
        out.coeff_samples += s.coeff_samples;
    }
    out.finish_ns += std::chrono::duration<double, std::nano>(z - a).count();
    out.image_samples += static_cast<std::uint64_t>(img.width()) * img.height() * img.components();
    return img;
}

runtime::decode_options service_options(const input& in)
{
    runtime::decode_options o;
    o.prio = in.prio == 0 ? runtime::priority::interactive : runtime::priority::batch;
    o.cache = in.bypass ? runtime::cache_policy::bypass : runtime::cache_policy::use;
    o.codec = in.codec;
    return o;
}

struct chain {
    std::vector<std::vector<double>> roundtrip, submit, below;  ///< [input][rep] µs
};

struct probe_result {
    std::map<std::string, double> m;
    bool ok = true;
    tally t;
};

runtime::cache_key probe_key(const input& in)
{
    runtime::cache_key k;
    k.content_hash = runtime::fnv1a_bytes(in.cs);
    k.codec = in.codec;
    k.layers = 1;
    return k;
}

probe_result run_probe(stack& st, const input_set& in, workload w, sb::span_log& log)
{
    probe_result pr;
    runtime::decode_service& svc = st.srv->service();
    net::client cli{"127.0.0.1", st.srv->port()};
    sb::span_buffer& mb = log.buffer(90);
    std::vector<sb::span_buffer*> wbufs;
    for (int i = 0; i < host_threads(); ++i) wbufs.push_back(&log.buffer(91 + i));
    std::uint64_t request = std::uint64_t{0xF} << 48;

    // A warmed cache instance of the benchmark's own: hit lookups are timed
    // on it so the server's counters stay the workload's.
    runtime::decoded_cache lookup_cache{std::size_t{1} << 30};
    auto decoded = [](const input& x) {
        return std::make_shared<const j2k::image>(
            net::decode_image_raw(x.expected.back()));
    };

    const std::size_t np = std::min<std::size_t>(k_probe_inputs, in.primary.size());
    stage_times s53, s97;
    std::vector<double> t1_ms53, t1_ms97;
    std::vector<double> encode_us;
    std::vector<double> session_first, session_total;
    chain primary, cubes;

    for (std::size_t i = 0; i < np; ++i) {
        const input& x = in.primary[i];
        lookup_cache.insert(probe_key(x), decoded(x));
        primary.roundtrip.emplace_back();
        primary.submit.emplace_back();
        primary.below.emplace_back();
        for (int r = 0; r < k_probe_reps; ++r, ++request) {
            const bool miss = w == workload::cold_j2k;  // the workload's path
            // J2NE round trip.
            if (miss) svc.cache()->clear();
            const outcome o = issue(cli, x, static_cast<std::uint32_t>(request), &mb, request);
            pr.t.add(o.ok);
            primary.roundtrip.back().push_back(o.total_ms * 1e3);
            // In-process submit, same options.
            if (miss) svc.cache()->clear();
            {
                const auto a = clk::now();
                clk::time_point z{};
                bool ok = true;
                if (x.progressive) {
                    std::promise<bool> done;
                    auto fut = done.get_future();
                    std::size_t frames = 0;
                    clk::time_point first{};
                    svc.submit_progressive(
                        std::vector<std::uint8_t>{x.cs}, service_options(x),
                        [&](runtime::decode_service::layer_event&& ev, std::exception_ptr err) {
                            if (err) {
                                done.set_value(false);
                                return false;
                            }
                            if (frames++ == 0) first = clk::now();
                            if (ev.last) done.set_value(frames == x.expected.size());
                            return true;
                        });
                    ok = fut.get();
                    z = clk::now();
                    mb.spans.push_back({"service.first_layer", request, 12, 11, a, first});
                } else {
                    const j2k::image img = svc.submit(x.cs, service_options(x)).get();
                    z = clk::now();
                    ok = same_bytes(net::encode_image_raw(img), x.expected.front());
                }
                mb.spans.push_back({"service.submit", request, 11, 1, a, z});
                primary.submit.back().push_back(ms_between(a, z) * 1e3);
                pr.t.add(ok);
            }
            // The layer below the service for this request.
            if (w == workload::hot_zipf) {
                const auto a = clk::now();
                const auto hit = lookup_cache.begin_flight(probe_key(x));
                const auto z = clk::now();
                pr.ok = pr.ok && hit && hit->image;
                mb.spans.push_back({"cache.lookup", request, 21, 11, a, z});
                primary.below.back().push_back(ms_between(a, z) * 1e3);
            } else if (x.progressive) {
                const auto a = clk::now();
                j2k::decode_session s{x.cs};
                double first_ms = 0;
                for (int l = 1; l <= s.total_layers(); ++l) {
                    const auto la = clk::now();
                    const j2k::image img = s.advance_to(l);
                    const auto lz = clk::now();
                    if (l == 1) first_ms = ms_between(a, lz);
                    mb.spans.push_back({"j2k.session.advance_to", request,
                                        static_cast<std::uint32_t>(30 + l), 21, la, lz});
                    pr.ok = pr.ok && same_bytes(net::encode_image_raw(img),
                                                x.expected[static_cast<std::size_t>(l - 1)]);
                }
                const auto z = clk::now();
                mb.spans.push_back({"j2k.session", request, 21, 11, a, z});
                primary.below.back().push_back(ms_between(a, z) * 1e3);
                session_first.push_back(first_ms);
                session_total.push_back(ms_between(a, z));
            }
            // Staged Figure-1 calls (the chain below the service on cold_j2k;
            // on the other workloads a root of its own, for the stage costs).
            {
                stage_times one;
                const std::uint32_t parent = w == workload::cold_j2k ? 11 : 0;
                const auto a = clk::now();
                const j2k::image img = staged_j2k(x, wbufs, &mb, request, 41, one);
                const auto z = clk::now();
                mb.spans.push_back({"j2k.staged", request, 41, parent, a, z});
                pr.ok = pr.ok && same_bytes(net::encode_image_raw(img), x.expected.back());
                if (w == workload::cold_j2k) primary.below.back().push_back(ms_between(a, z) * 1e3);
                stage_times& acc = x.lossy ? s97 : s53;
                acc.tier1_ns += one.tier1_ns;
                acc.iq_ns += one.iq_ns;
                acc.idwt_ns += one.idwt_ns;
                acc.finish_ns += one.finish_ns;
                acc.mq += one.mq;
                acc.coeff_samples += one.coeff_samples;
                acc.image_samples += one.image_samples;
                (x.lossy ? t1_ms97 : t1_ms53).push_back(one.tier1_ns * 1e-6);
                const auto ea = clk::now();
                const auto raw = net::encode_image_raw(img);
                encode_us.push_back(ms_between(ea, clk::now()) * 1e3);
                pr.ok = pr.ok && !raw.empty();
            }
        }
    }

    std::vector<double> cube_ms;
    std::uint64_t cube_samples = 0;
    double cube_ns = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(k_probe_inputs, in.cubes.size()); ++i) {
        const input& x = in.cubes[i];
        cubes.roundtrip.emplace_back();
        cubes.submit.emplace_back();
        cubes.below.emplace_back();
        for (int r = 0; r < k_probe_reps; ++r, ++request) {
            const outcome o = issue(cli, x, static_cast<std::uint32_t>(request), &mb, request);
            pr.t.add(o.ok);
            cubes.roundtrip.back().push_back(o.total_ms * 1e3);
            auto a = clk::now();
            const j2k::image img = svc.submit(x.cs, service_options(x)).get();
            auto z = clk::now();
            pr.t.add(same_bytes(net::encode_image_raw(img), x.expected.front()));
            mb.spans.push_back({"service.submit", request, 11, 1, a, z});
            cubes.submit.back().push_back(ms_between(a, z) * 1e3);
            a = clk::now();
            const codec::image out = ccsds::decode(x.cs);
            z = clk::now();
            mb.spans.push_back({"ccsds.decode", request, 21, 11, a, z});
            cubes.below.back().push_back(ms_between(a, z) * 1e3);
            cube_ms.push_back(ms_between(a, z));
            cube_ns += ms_between(a, z) * 1e6;
            cube_samples += static_cast<std::uint64_t>(out.width()) * out.height() * out.components();
        }
    }

    // Hit-lookup unit cost on the warmed instance.
    std::vector<double> lookup_us;
    for (int r = 0; r < 200; ++r)
        for (std::size_t i = 0; i < np; ++i) {
            const auto k = probe_key(in.primary[i]);
            const auto a = clk::now();
            const auto hit = lookup_cache.begin_flight(k);
            lookup_us.push_back(ms_between(a, clk::now()) * 1e3);
            pr.ok = pr.ok && hit && hit->image;
        }

    // Ops-plane scrape cost.
    std::vector<double> scrape_ms, scrape_bytes;
    for (int r = 0; r < 10; ++r) {
        const auto a = clk::now();
        bool ok = false;
        try {
            const auto resp = ops::http_get("127.0.0.1", st.ops->port(), "/metrics");
            ok = resp.status == 200;
            scrape_bytes.push_back(static_cast<double>(resp.body.size()));
        } catch (const std::exception&) {
        }
        const auto z = clk::now();
        mb.spans.push_back({"ops.scrape", request++, 1, 0, a, z});
        scrape_ms.push_back(ms_between(a, z));
        pr.t.add(ok);
    }

    auto per_sample = [](double ns, std::uint64_t n) { return n ? ns / static_cast<double>(n) : 0.0; };
    auto& m = pr.m;
    m["j2k.tier1_ms.53"] = sb::median(t1_ms53);
    m["j2k.tier1_ms.97"] = sb::median(t1_ms97);
    m["j2k.tier1_ns_per_mq"] = per_sample(s53.tier1_ns + s97.tier1_ns, s53.mq + s97.mq);
    m["j2k.iq_ns_per_sample"] =
        per_sample(s53.iq_ns + s97.iq_ns, s53.coeff_samples + s97.coeff_samples);
    m["j2k.idwt_ns_per_sample.53"] = per_sample(s53.idwt_ns, s53.coeff_samples);
    m["j2k.idwt_ns_per_sample.97"] = per_sample(s97.idwt_ns, s97.coeff_samples);
    m["j2k.finish_ns_per_sample"] =
        per_sample(s53.finish_ns + s97.finish_ns, s53.image_samples + s97.image_samples);
    for (const auto& [tag, s] : {std::pair{".53", &s53}, std::pair{".97", &s97}}) {
        const double whole = s->tier1_ns + s->iq_ns + s->idwt_ns + s->finish_ns;
        m[std::string{"j2k.share.tier1"} + tag] = sb::share(s->tier1_ns, whole);
        m[std::string{"j2k.share.iq"} + tag] = sb::share(s->iq_ns, whole);
        m[std::string{"j2k.share.idwt"} + tag] = sb::share(s->idwt_ns, whole);
        m[std::string{"j2k.share.finish"} + tag] = sb::share(s->finish_ns, whole);
    }
    m["j2k.session_first_layer_ms"] = sb::median(session_first);
    m["j2k.session_total_ms"] = sb::median(session_total);
    m["ccsds.decode_ms_per_cube"] = sb::median(cube_ms);
    m["ccsds.ns_per_sample"] = per_sample(cube_ns, cube_samples);
    m["cache.lookup_hit_us"] = sb::median(lookup_us);
    // Self times: the primary chain, then the cube chain when there is one
    // (progressive_ccsds reports the median of both chains' inputs).
    chain all = primary;
    for (std::size_t i = 0; i < cubes.roundtrip.size(); ++i) {
        all.roundtrip.push_back(cubes.roundtrip[i]);
        all.submit.push_back(cubes.submit[i]);
        all.below.push_back(cubes.below[i]);
    }
    m["net.overhead_us"] = sb::ledger_self_time(all.roundtrip, all.submit);
    m["service.overhead_us"] = sb::ledger_self_time(all.submit, all.below);
    m["net.encode_raw_us"] = sb::median(encode_us);
    m["ops.scrape_ms"] = sb::median(scrape_ms);
    m["ops.scrape_bytes"] = sb::median(scrape_bytes);
    return pr;
}

// ---------------------------------------------------------------------------

struct exact_counts {
    double mq_decisions_per_image = 0;
    double t1_segment_bytes_per_stream = 0;
    double bytes_in_per_req = 0;
    double bytes_out_per_req = 0;
    std::uint64_t decoded_samples = 0;
    std::uint64_t expected_digest = 0;
};

exact_counts count_inputs(const input_set& in)
{
    exact_counts e;
    runtime::fnv1a h;
    std::uint64_t mq = 0, t1 = 0;
    for (const auto* set : {&in.primary, &in.cubes})
        for (const input& x : *set) {
            mq += x.mq_decisions;
            t1 += x.t1_segment_bytes;
            e.decoded_samples += x.samples;
            for (const auto& f : x.expected) h.bytes(f);
        }
    e.expected_digest = h.value();
    if (!in.primary.empty()) {
        e.mq_decisions_per_image = static_cast<double>(mq) / static_cast<double>(in.primary.size());
        if (in.primary.front().progressive)
            e.t1_segment_bytes_per_stream =
                static_cast<double>(t1) / static_cast<double>(in.primary.size());
    }
    return e;
}

std::string cpu_model()
{
    std::ifstream f{"/proc/cpuinfo"};
    for (std::string line; std::getline(f, line);)
        if (line.rfind("model name", 0) == 0) {
            const auto p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    return "unknown";
}

void print_fingerprint()
{
    std::printf("FINGERPRINT {\"cpu_model\": %s, \"nproc\": %d, \"kernel_isa\": %s, "
                "\"compiler\": %s, \"build_type\": %s, \"obs_tracing\": %s}\n",
                json_string(cpu_model()).c_str(), host_threads(),
                json_string(j2k::kernel_isa_name(j2k::active_kernel_isa())).c_str(),
                json_string(runtime::compiler_version()).c_str(),
                json_string(runtime::build_type()).c_str(),
                obs::tracing_compiled() ? "\"ON\"" : "\"OFF\"");
}

void print_figure1(const std::map<std::string, double>& m)
{
    struct row {
        const char* stage;
        const char* key;
        double paper53, paper97;
    };
    // Paper Figure 1 splits the last stage into ICT 0.7/1.2 and DC shift
    // 1.8/3.6; j2k::decoder::finish() runs both, so they are compared summed.
    const row rows[] = {{"tier-1 (arith)", "tier1", 88.8, 78.6},
                        {"IQ", "iq", 3.2, 4.2},
                        {"IDWT", "idwt", 5.5, 12.4},
                        {"ICT + DC shift", "finish", 0.7 + 1.8, 1.2 + 3.6}};
    std::printf("Figure-1 view (%% of decode time; this host vs the paper):\n");
    std::printf("  %-16s %9s %9s   %9s %9s\n", "stage", "5/3 here", "paper", "9/7 here", "paper");
    for (const row& r : rows)
        std::printf("  %-16s %8.1f%% %8.1f%%   %8.1f%% %8.1f%%\n", r.stage,
                    100.0 * m.at(std::string{"j2k.share."} + r.key + ".53"), r.paper53,
                    100.0 * m.at(std::string{"j2k.share."} + r.key + ".97"), r.paper97);
}

struct args {
    workload w = workload::cold_j2k;
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
    bool list = false;
};

bool parse_args(int argc, char** argv, args& a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--list-metrics") {
            a.list = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload_name = v;
            if (!sb::parse_workload(v, a.w)) return false;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            return false;
        }
    }
    return a.list || (!a.workload_name.empty() && a.seconds > 0);
}

int run(const args& a)
{
    print_fingerprint();
    const input_set in = make_inputs(a.w, a.seed);
    exact_counts ec = count_inputs(in);
    bool correct = true;
    for (const auto* set : {&in.primary, &in.cubes})
        for (const input& x : *set) correct = correct && x.lossless_ok;

    // Set-up: construct → ready → warm-up, several times; the last stack
    // serves the timed phase.
    tally t;
    std::vector<double> setup_s;
    std::unique_ptr<stack> st;
    net::server::stats_snapshot warm_before{}, warm_after{};
    std::uint64_t warm_requests = 0;
    for (int rep = 0; rep < k_setup_reps; ++rep) {
        st.reset();
        const auto a0 = clk::now();
        st = make_stack();
        warm_before = st->srv->stats();
        warm_requests = warm_up(*st, in, a.w, a.seed, t);
        warm_after = st->srv->stats();
        setup_s.push_back(std::chrono::duration<double>(clk::now() - a0).count());
    }
    ec.bytes_in_per_req = static_cast<double>(warm_after.bytes_in - warm_before.bytes_in) /
                          static_cast<double>(warm_requests);
    ec.bytes_out_per_req = static_cast<double>(warm_after.bytes_out - warm_before.bytes_out) /
                           static_cast<double>(warm_requests);

    load_state ls;
    for (int c = 0; c < connections(a.w); ++c) {
        ls.seqs.emplace_back(a.w, a.seed, c);
        ls.next.push_back(0);
    }
    // cold_j2k continues its sequence after the warm-up's streams, so none
    // of the timed requests finds a stream the warm-up left cached.
    ls.cold_next = warm_requests;

    const auto m0 = st->srv->service().metrics();
    std::map<std::string, double> out;
    std::vector<metric_def> defs;
    phase_result timed{a.seconds};
    if (!a.trace) {
        timed = run_phase(*st, in, a.w, ls, a.seconds, nullptr, 1);
        t.add(timed.t);
        out = end_to_end(timed, a.w, sb::median(setup_s));
        defs = end_to_end_defs();
    } else {
        sb::span_log log;
        const auto origin = clk::now();
        const phase_result plain = run_phase(*st, in, a.w, ls, a.seconds / 2, nullptr, 1);
        const phase_result traced = run_phase(*st, in, a.w, ls, a.seconds / 2, &log, 2);
        t.add(plain.t);
        t.add(traced.t);
        const auto m1 = st->srv->service().metrics();
        const auto s1 = st->srv->stats();
        probe_result pr = run_probe(*st, in, a.w, log);
        t.add(pr.t);
        correct = correct && pr.ok;
        out = pr.m;

        const double p50_plain =
            plain.lat.total.pooled(plain.elapsed_s, sb::clean_windows(plain.steal)).percentile(50);
        const double p50_traced =
            traced.lat.total.pooled(traced.elapsed_s, sb::clean_windows(traced.steal)).percentile(50);
        out["trace.overhead_pct"] = 100.0 * sb::share(p50_traced - p50_plain, p50_plain);

        const double reqs = static_cast<double>(
            plain.lat.total.count() + plain.lat.cube.count() + traced.lat.total.count() +
            traced.lat.cube.count());
        const double lookups = static_cast<double>(
            (m1.cache_hits - m0.cache_hits) + (m1.cache_misses - m0.cache_misses) +
            (m1.cache_collapses - m0.cache_collapses));
        out["cache.hit_ratio"] = sb::share(static_cast<double>(m1.cache_hits - m0.cache_hits), lookups);
        out["cache.collapses"] = static_cast<double>(m1.cache_collapses - m0.cache_collapses);
        out["cache.evictions_per_req"] =
            sb::share(static_cast<double>(m1.cache_evictions - m0.cache_evictions), reqs);
        out["service.job_p50_us"] = m1.latency_p50_us;
        out["service.job_p99_us"] = m1.latency_p99_us;
        out["service.interactive_p99_us"] =
            m1.latency_by_priority[static_cast<std::size_t>(runtime::priority::interactive)].p99_us;
        out["service.batch_p99_us"] =
            m1.latency_by_priority[static_cast<std::size_t>(runtime::priority::batch)].p99_us;
        out["service.queue_high_water"] = static_cast<double>(m1.queue_depth_high_water);
        out["service.steals_per_job"] =
            sb::share(static_cast<double>(m1.tasks_stolen - m0.tasks_stolen),
                      static_cast<double>(m1.jobs_completed - m0.jobs_completed));
        out["service.jobs_promoted"] = static_cast<double>(m1.jobs_promoted - m0.jobs_promoted);
        out["service.arena_fallback_allocs"] =
            static_cast<double>(m1.arena_fallback_allocs - m0.arena_fallback_allocs);
        out["service.rejected"] = static_cast<double>(m1.jobs_rejected - m0.jobs_rejected);
        out["net.jobs_per_pool_submission"] =
            sb::share(static_cast<double>(m1.jobs_submitted - m0.jobs_submitted),
                      static_cast<double>(m1.pool_submissions - m0.pool_submissions));
        out["net.bad_frames"] = static_cast<double>(s1.bad_frames);
        out["net.bytes_in_per_req"] = ec.bytes_in_per_req;
        out["net.bytes_out_per_req"] = ec.bytes_out_per_req;
        out["j2k.mq_decisions_per_image"] = ec.mq_decisions_per_image;
        out["j2k.t1_segment_bytes_per_stream"] = ec.t1_segment_bytes_per_stream;
        defs = per_layer_defs();

        timed = traced;
        if (!a.trace_out.empty()) {
            if (log.write_chrome_json(a.trace_out, origin))
                std::printf("trace: %zu spans written to %s\n", log.size(), a.trace_out.c_str());
            else
                correct = false;
        }
        if (!in.primary.empty() && !in.primary.front().progressive && a.w == workload::cold_j2k)
            print_figure1(out);
        std::printf("trace overhead: p50 %.4f ms untraced, %.4f ms traced (%+.2f%%)\n",
                    p50_plain, p50_traced, out["trace.overhead_pct"]);
    }

    const std::uint64_t primary = timed.lat.total.count();
    const std::vector<bool> keep = sb::clean_windows(timed.steal);
    const std::uint64_t tail_n = timed.lat.total.pooled(timed.elapsed_s, keep).count();
    const std::size_t beyond = sb::samples_beyond(tail_n, sb::tail_rung(a.w));
    std::printf("workload %s seed %" PRIu64 ": %" PRIu64 " primary + %" PRIu64
                " ccsds requests in %.3f s; tail p%g over %" PRIu64 " samples, %zu beyond%s\n",
                a.workload_name.c_str(), a.seed, primary, timed.lat.cube.count(), timed.elapsed_s,
                sb::tail_rung(a.w), tail_n, beyond,
                beyond < 10 ? " (WARNING: under 10 samples beyond the tail percentile)" : "");
    std::vector<double> rates = timed.lat.total.rates(timed.elapsed_s);
    const std::vector<double> cube_rates = timed.lat.cube.rates(timed.elapsed_s);
    std::printf("windows (1 s): rate/s [steal %%, * = left out]:");
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const double rate = rates[i] + (i < cube_rates.size() ? cube_rates[i] : 0.0);
        if (i < timed.steal.size())
            std::printf(" %.0f[%.1f%s]", rate, 100.0 * timed.steal[i], keep[i] ? "" : "*");
        else
            std::printf(" %.0f", rate);
    }
    std::printf("\n");
    std::printf("requests: attempted %" PRIu64 ", succeeded %" PRIu64 ", failed %" PRIu64
                " (fail_ratio %.6f)\n",
                t.attempted, t.attempted - t.failed, t.failed,
                sb::share(static_cast<double>(t.failed), static_cast<double>(t.attempted)));
    std::printf("EXACT {\"mq_decisions_per_image\": %s, \"t1_segment_bytes_per_stream\": %s, "
                "\"bytes_in_per_req\": %s, \"bytes_out_per_req\": %s, \"decoded_samples\": %" PRIu64
                ", \"expected_digest\": \"%016" PRIx64 "\"}\n",
                json_number(ec.mq_decisions_per_image).c_str(),
                json_number(ec.t1_segment_bytes_per_stream).c_str(),
                json_number(ec.bytes_in_per_req).c_str(), json_number(ec.bytes_out_per_req).c_str(),
                ec.decoded_samples, ec.expected_digest);
    st.reset();

    correct = correct && t.failed == 0;
    const std::string metrics = metrics_json(defs, out);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": %s}\n",
                correct ? "true" : "false", t.attempted, t.failed, metrics.c_str());
    std::fflush(stdout);
    return 0;
}

void list_metrics()
{
    auto dump = [](const std::vector<metric_def>& defs) {
        std::string s = "{";
        for (const auto& d : defs) {
            if (s.size() > 1) s += ", ";
            s += json_string(d.name) + ": " + json_string(d.unit);
        }
        return s + "}";
    };
    std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n", dump(end_to_end_defs()).c_str(),
                dump(per_layer_defs()).c_str());
}

}  // namespace

int main(int argc, char** argv)
{
    args a;
    if (!parse_args(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: servebench --workload <cold_j2k|hot_zipf|progressive_ccsds> "
                     "--seed N --seconds S --trace <0|1> [--trace-out PATH]\n"
                     "       servebench --list-metrics\n");
        return 2;
    }
    if (a.list) {
        list_metrics();
        return 0;
    }
    try {
        return run(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
