#include "serve/cache.hpp"

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <system_error>

#include "obs/histogram.hpp"
#include "obs/stats.hpp"
#include "serve/hash.hpp"
#include "support/faultinject.hpp"
#include "support/retry.hpp"

namespace ara::serve {

ARA_STATISTIC(stat_hits, "serve.cache_hits", "Summary cache hits (units not re-analyzed)");
ARA_STATISTIC(stat_misses, "serve.cache_misses", "Summary cache misses");
ARA_STATISTIC(stat_writes, "serve.cache_writes", "Summary cache entries written");
ARA_STATISTIC(stat_evictions, "serve.cache_evictions",
              "Invalid cache entries discarded (corrupt, truncated, or stale)");
ARA_STATISTIC(stat_retries, "serve.retries",
              "Transient I/O faults absorbed by retrying (cache and artifacts)");

ARA_HISTOGRAM(hist_cache_lookup, "serve.cache_lookup_ns",
              "Summary-cache lookup latency (read + validate, hit or miss)", "ns");

namespace {

constexpr std::string_view kMagic = "ARA-UNIT-CACHE v1";

/// Reads the whole entry file. An absent file is a definitive cold miss
/// (nullopt, never retried); a read that starts and then fails is a
/// transient fault and throws fi::IoFault so retry_io takes another pass.
std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw fi::IoFault("read failed: " + path.string());
  return buf.str();
}

/// Validates the entry envelope and returns the payload, or nullopt.
std::optional<std::string_view> unwrap(std::string_view text, std::string_view key) {
  auto line = [&]() -> std::optional<std::string_view> {
    const std::size_t nl = text.find('\n');
    if (nl == std::string_view::npos) return std::nullopt;
    std::string_view out = text.substr(0, nl);
    text = text.substr(nl + 1);
    return out;
  };
  if (line() != kMagic) return std::nullopt;
  if (line() != "key " + std::string(key)) return std::nullopt;
  if (line() != "version " + std::string(kAnalyzerVersion)) return std::nullopt;
  const auto payload_hdr = line();
  if (!payload_hdr || payload_hdr->substr(0, 8) != "payload ") return std::nullopt;
  std::size_t nbytes = 0;
  for (const char c : payload_hdr->substr(8)) {
    if (c < '0' || c > '9' || nbytes > text.size()) return std::nullopt;
    nbytes = nbytes * 10 + static_cast<std::size_t>(c - '0');
  }
  if (payload_hdr->size() == 8 || nbytes > text.size()) return std::nullopt;
  std::string_view payload = text.substr(0, nbytes);
  text = text.substr(nbytes);
  if (line() != std::string_view{}) return std::nullopt;  // '\n' after payload
  if (line() != "checksum " + Hasher().update(payload).hex()) return std::nullopt;
  return payload;
}

std::optional<UnitSummary> decode(const std::optional<std::string>& text,
                                  std::string_view key) {
  if (!text) return std::nullopt;
  const auto payload = unwrap(*text, key);
  if (!payload) return std::nullopt;
  return parse_unit_summary(*payload);
}

/// Publishes `bytes` at `target` without a lock: writes them to a temp file
/// beside it whose name is unique to this call (`<target>.tmp.<pid>.<n>`,
/// `n` from a per-process counter), then renames that over `target`.
/// Concurrent publishers of one path, threads or processes, never share a
/// temp file, so a reader always opens one publisher's complete bytes.
/// Returns false, with the temp file removed, when the write or the rename
/// fails.
bool publish_file(const std::filesystem::path& target, std::string_view bytes) {
  static std::atomic<std::uint64_t> next_temp{0};
  const std::filesystem::path tmp =
      target.string() + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(next_temp.fetch_add(1, std::memory_order_relaxed));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  std::error_code ec;
  if (out) std::filesystem::rename(tmp, target, ec);
  if (!out || ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace

SummaryCache::SummaryCache(std::filesystem::path dir, bool enabled)
    : dir_(std::move(dir)), enabled_(enabled && !dir_.empty()) {}

std::string SummaryCache::key_for(std::string_view source_name,
                                  std::string_view source_text, Language lang,
                                  std::string_view flags) {
  Hasher h;
  h.field(kMagic);
  h.field(kAnalyzerVersion);
  h.field(flags);
  h.field(source_name);
  h.field(lang == Language::C ? "C" : "F");
  h.field(source_text);
  return h.hex();
}

std::filesystem::path SummaryCache::entry_path(std::string_view key) const {
  return dir_ / (std::string(key) + ".unit");
}

std::optional<UnitSummary> SummaryCache::load(
    std::string_view key, const std::function<bool(const UnitSummary&)>& current) const {
  if (!enabled_) return std::nullopt;
  obs::ScopedLatency lookup_latency(hist_cache_lookup);
  const std::filesystem::path path = entry_path(key);

  std::optional<std::string> text;
  bool present = false;
  const bool read_ok = support::retry_io(
      support::RetryPolicy{},
      [&] {
        const std::size_t keep = fi::check_io("cache.read", key);  // may throw IoFault
        text = read_file(path);
        present = text.has_value();
        if (text && text->size() > keep) text->resize(keep);  // injected short read
        return true;
      },
      [](int) { stat_retries.bump(); });
  if (!read_ok) {
    // Persistent read failure: the entry may be fine on disk, so do not
    // evict it — just degrade to a miss and re-analyze the unit.
    stat_misses.bump();
    return std::nullopt;
  }
  if (!present) {
    stat_misses.bump();
    return std::nullopt;
  }

  std::optional<UnitSummary> unit = decode(text, key);
  if (!unit) {
    // The entry exists but is unusable (corrupt, truncated, or written by a
    // different analyzer version). Evict it so a shared cache heals instead
    // of re-validating the same junk forever. A plain unlink: if a peer has
    // just renamed a fresh entry into this path, removing it costs that unit
    // one re-analysis, never a wrong answer, because keys are content-
    // addressed and every load re-validates what it reads.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    stat_evictions.bump();
    stat_misses.bump();
    return std::nullopt;
  }
  if (current && !current(*unit)) {
    stat_misses.bump();
    return std::nullopt;
  }
  stat_hits.bump();
  return unit;
}

bool SummaryCache::store(std::string_view key, const UnitSummary& unit) const {
  if (!enabled_) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;

  const std::string payload = write_unit_summary(unit);
  std::ostringstream os;
  os << kMagic << '\n'
     << "key " << key << '\n'
     << "version " << kAnalyzerVersion << '\n'
     << "payload " << payload.size() << '\n'
     << payload << '\n'
     << "checksum " << Hasher().update(payload).hex() << '\n';
  const std::string entry = os.str();

  // Atomic publish: a crash mid-store leaves at most an orphaned temp file,
  // never a half-written entry. Concurrent stores of one key each rename
  // their own complete file, and any rename may land last: one key is one
  // summary, apart from the shapes a C unit imported, which every reuse
  // checks.
  const std::filesystem::path final_path = entry_path(key);
  const bool ok = support::retry_io(
      support::RetryPolicy{},
      [&] {
        // An injected truncation is a short write: nothing is published.
        if (fi::check_io("cache.write", key) < entry.size())  // may throw IoFault
          throw fi::IoFault("short write: " + final_path.string());
        if (!publish_file(final_path, entry))
          throw fi::IoFault("publish failed: " + final_path.string());
        return true;
      },
      [](int) { stat_retries.bump(); });
  if (!ok) return false;
  stat_writes.bump();
  return true;
}

}  // namespace ara::serve
