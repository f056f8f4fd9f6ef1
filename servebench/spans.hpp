// servebench/spans.hpp — the benchmark's own span log.
//
// Spans are recorded only from the benchmark's files, around calls into each
// module's public functions; nothing inside src/ is instrumented.  Each span
// carries its name, start, end, the id of the span that caused it and the id
// of the request it belongs to.  Spans stay in memory (one buffer per
// recording thread, no locking on the hot path) and are written out once, as
// Chrome trace-event JSON that Perfetto and chrome://tracing load.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

using clk = std::chrono::steady_clock;

struct span {
    const char* name = "";      ///< static string
    std::uint64_t request = 0;  ///< shared by every span of one request
    std::uint32_t id = 0;       ///< unique within (request)
    std::uint32_t parent = 0;   ///< 0 = root of its request
    clk::time_point start{};
    clk::time_point end{};

    [[nodiscard]] double us() const
    {
        return std::chrono::duration<double, std::micro>(end - start).count();
    }
};

/// One recording thread's buffer.
struct span_buffer {
    int tid = 0;
    std::vector<span> spans;
};

class span_log {
public:
    /// A buffer owned by the log; the caller records into it from one thread.
    span_buffer& buffer(int tid)
    {
        std::lock_guard lk{m_};
        auto& b = buffers_.emplace_back();
        b.tid = tid;
        b.spans.reserve(1024);
        return b;
    }

    [[nodiscard]] std::size_t size() const
    {
        std::lock_guard lk{m_};
        std::size_t n = 0;
        for (const auto& b : buffers_) n += b.spans.size();
        return n;
    }

    /// Write every span as a Chrome trace-event JSON object.  Returns false
    /// when the file could not be written completely.
    bool write_chrome_json(const std::string& path, clk::time_point origin) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
        std::fputs("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                   "\"args\":{\"name\":\"servebench\"}}",
                   f);
        std::lock_guard lk{m_};
        for (const auto& b : buffers_) {
            for (const span& s : b.spans) {
                const double ts =
                    std::chrono::duration<double, std::micro>(s.start - origin).count();
                std::fprintf(f,
                             ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                             "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                             "\"span\":%u,\"parent\":%u}}",
                             s.name, b.tid, ts, s.us(),
                             static_cast<unsigned long long>(s.request), s.id, s.parent);
            }
        }
        std::fputs("\n]}\n", f);
        const bool ok = std::ferror(f) == 0;
        return std::fclose(f) == 0 && ok;
    }

private:
    mutable std::mutex m_;
    std::deque<span_buffer> buffers_;  ///< deque: buffer references stay valid
};

/// Records one span into a buffer when `buf` is non-null (tracing on); a
/// no-op otherwise.
class scoped_span {
public:
    scoped_span(span_buffer* buf, const char* name, std::uint64_t request,
                std::uint32_t id, std::uint32_t parent)
        : buf_{buf}
    {
        if (buf_) s_ = span{name, request, id, parent, clk::now(), {}};
    }
    ~scoped_span()
    {
        if (buf_) {
            s_.end = clk::now();
            buf_->spans.push_back(s_);
        }
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_buffer* buf_;
    span s_;
};

}  // namespace servebench
