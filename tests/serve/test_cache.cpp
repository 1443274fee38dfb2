// Tests for the persistent summary cache: round trips, key sensitivity, the
// robustness contract — corrupt, truncated, stale-version or mismatched
// entries are misses (counted as evictions, then overwritten by the next
// store), never crashes; an entry the caller finds stale is a miss that
// stays on disk — and the lock-free concurrency contract: racing
// stores and evictions never publish a torn entry, never return a wrong
// summary, and never wait on one another.
#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hpp"
#include "serve/summary.hpp"

namespace ara::serve {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter(const std::string& name) {
  for (const obs::StatEntry& e : obs::StatsRegistry::instance().snapshot()) {
    if (e.name == name) return e.value;
  }
  return 0;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A small hand-built summary; serde correctness has its own test file.
UnitSummary sample_unit() {
  UnitSummary unit;
  unit.source_name = "sample.f";
  unit.language = Language::Fortran;
  SymInfo proc;
  proc.kind = SymInfo::Kind::Proc;
  proc.name = "p";
  proc.mtype = ir::Mtype::Void;
  unit.symbols.push_back(proc);
  ProcSummary p;
  p.sym = 0;
  unit.procs.push_back(p);
  unit.cfg_text = "proc p blocks=1 edges=0\n  B0 entry lines=1-1 ->\n";
  return unit;
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "ara_cache_test";
    fs::remove_all(dir_);
    obs::set_enabled(true);
    obs::StatsRegistry::instance().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

TEST_F(CacheTest, StoreThenLoadRoundTrips) {
  const SummaryCache cache(dir_, true);
  const UnitSummary unit = sample_unit();
  const std::string key = SummaryCache::key_for("sample.f", "text", Language::Fortran, "f");
  EXPECT_FALSE(cache.load(key).has_value());  // cold
  ASSERT_TRUE(cache.store(key, unit));
  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(write_unit_summary(*hit), write_unit_summary(unit));
  EXPECT_EQ(counter("serve.cache_hits"), 1u);
  EXPECT_EQ(counter("serve.cache_misses"), 1u);
  EXPECT_EQ(counter("serve.cache_writes"), 1u);
  EXPECT_EQ(counter("serve.cache_evictions"), 0u);
}

TEST_F(CacheTest, EntryTheCallerRejectsIsAMissThatStaysOnDisk) {
  // A well-formed entry that is not current for this caller (a C unit whose
  // imported shapes changed) counts as a miss, not a hit, and is not
  // evicted: a caller for whom it is current still hits.
  const SummaryCache cache(dir_, true);
  const std::string key = SummaryCache::key_for("sample.f", "text", Language::Fortran, "f");
  ASSERT_TRUE(cache.store(key, sample_unit()));
  EXPECT_FALSE(cache.load(key, [](const UnitSummary&) { return false; }).has_value());
  EXPECT_EQ(counter("serve.cache_hits"), 0u);
  EXPECT_EQ(counter("serve.cache_misses"), 1u);
  EXPECT_EQ(counter("serve.cache_evictions"), 0u);
  EXPECT_TRUE(fs::exists(cache.entry_path(key)));
  EXPECT_TRUE(cache.load(key, [](const UnitSummary&) { return true; }).has_value());
  EXPECT_EQ(counter("serve.cache_hits"), 1u);
}

TEST_F(CacheTest, DisabledCacheDoesNothing) {
  const SummaryCache cache(dir_, false);
  const std::string key = SummaryCache::key_for("a", "b", Language::C, "f");
  EXPECT_FALSE(cache.store(key, sample_unit()));
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_FALSE(fs::exists(dir_));
  EXPECT_EQ(counter("serve.cache_misses"), 0u);  // not even counted
}

TEST_F(CacheTest, KeyDependsOnEveryInput) {
  const std::string base = SummaryCache::key_for("a.f", "text", Language::Fortran, "ipa=1");
  EXPECT_NE(base, SummaryCache::key_for("b.f", "text", Language::Fortran, "ipa=1"));
  EXPECT_NE(base, SummaryCache::key_for("a.f", "text2", Language::Fortran, "ipa=1"));
  EXPECT_NE(base, SummaryCache::key_for("a.f", "text", Language::C, "ipa=1"));
  EXPECT_NE(base, SummaryCache::key_for("a.f", "text", Language::Fortran, "ipa=0"));
  // Same inputs, same key (it names the entry file).
  EXPECT_EQ(base, SummaryCache::key_for("a.f", "text", Language::Fortran, "ipa=1"));
}

TEST_F(CacheTest, EveryBitFlipIsAnEvictedMissThenOverwritten) {
  const SummaryCache cache(dir_, true);
  const std::string key = SummaryCache::key_for("s.f", "t", Language::Fortran, "f");
  ASSERT_TRUE(cache.store(key, sample_unit()));
  const std::string good = slurp(cache.entry_path(key));
  ASSERT_FALSE(good.empty());

  // Flip one bit at a sweep of offsets across the whole entry (envelope,
  // payload, and checksum line); every variant must be a clean miss.
  std::uint64_t evictions = 0;
  for (std::size_t off = 0; off < good.size(); off += 7) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0x20);
    spit(cache.entry_path(key), bad);
    EXPECT_FALSE(cache.load(key).has_value()) << "offset " << off;
    ++evictions;
  }
  EXPECT_EQ(counter("serve.cache_evictions"), evictions);

  // The next store overwrites the damaged entry and restores hits.
  ASSERT_TRUE(cache.store(key, sample_unit()));
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST_F(CacheTest, TruncatedEntriesAreMisses) {
  const SummaryCache cache(dir_, true);
  const std::string key = SummaryCache::key_for("s.f", "t", Language::Fortran, "f");
  ASSERT_TRUE(cache.store(key, sample_unit()));
  const std::string good = slurp(cache.entry_path(key));
  for (const std::size_t len : {std::size_t{0}, good.size() / 4, good.size() / 2,
                                good.size() - 1}) {
    spit(cache.entry_path(key), good.substr(0, len));
    EXPECT_FALSE(cache.load(key).has_value()) << "len " << len;
  }
  EXPECT_GT(counter("serve.cache_evictions"), 0u);
}

TEST_F(CacheTest, AnalyzerVersionMismatchIsAMiss) {
  const SummaryCache cache(dir_, true);
  const std::string key = SummaryCache::key_for("s.f", "t", Language::Fortran, "f");
  ASSERT_TRUE(cache.store(key, sample_unit()));
  std::string entry = slurp(cache.entry_path(key));
  const std::size_t pos = entry.find(kAnalyzerVersion);
  ASSERT_NE(pos, std::string::npos);
  entry.replace(pos, std::string_view(kAnalyzerVersion).size(), "openara-serve-0");
  spit(cache.entry_path(key), entry);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(counter("serve.cache_evictions"), 1u);
}

TEST_F(CacheTest, EntryCopiedToWrongKeyIsAMiss) {
  // An entry is bound to its own key: renaming (or a colliding file) fails
  // the `key` envelope line even when the payload itself is intact.
  const SummaryCache cache(dir_, true);
  const std::string key = SummaryCache::key_for("s.f", "t", Language::Fortran, "f");
  const std::string other = SummaryCache::key_for("s.f", "t2", Language::Fortran, "f");
  ASSERT_TRUE(cache.store(key, sample_unit()));
  fs::copy_file(cache.entry_path(key), cache.entry_path(other));
  EXPECT_FALSE(cache.load(other).has_value());
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST_F(CacheTest, StoreIsAtomicNoTmpLeftBehind) {
  // Temp files are named `<target>.tmp.<pid>.<n>`: match the infix, since
  // their extension is the counter, never ".tmp".
  const SummaryCache cache(dir_, true);
  const std::string key = SummaryCache::key_for("s.f", "t", Language::Fortran, "f");
  ASSERT_TRUE(cache.store(key, sample_unit()));
  EXPECT_TRUE(fs::exists(cache.entry_path(key)));
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos) << e.path();
  }
}

TEST_F(CacheTest, ConcurrentStoresOfOneKeyNeverTearTheEntry) {
  // Eight threads publish one key while a loader loops. Each store renames
  // its own complete temp file, so no store fails, no load ever reads a torn
  // entry (nothing to evict), and every load after the first store hits.
  const SummaryCache cache(dir_, true);
  const UnitSummary unit = sample_unit();
  const std::string expected = write_unit_summary(unit);
  const std::string key = SummaryCache::key_for("s.f", "t", Language::Fortran, "f");
  constexpr int kWriters = 8;
  constexpr int kStoresEach = 50;

  std::atomic<bool> published{false};
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failed_stores{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kStoresEach; ++i) {
        if (cache.store(key, unit)) {
          published.store(true);
        } else {
          ++failed_stores;
        }
      }
      --writers_left;
    });
  }
  int loads = 0;
  int misses = 0;
  int wrong = 0;
  while (writers_left.load() > 0) {
    const bool after_first_store = published.load();
    const std::optional<UnitSummary> hit = cache.load(key);
    if (!after_first_store) continue;  // a cold miss is allowed
    ++loads;
    if (!hit) {
      ++misses;
    } else if (write_unit_summary(*hit) != expected) {
      ++wrong;
    }
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(failed_stores.load(), 0);
  EXPECT_EQ(misses, 0) << "of " << loads << " loads after the first store";
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(counter("serve.cache_evictions"), 0u);
  const std::optional<UnitSummary> last = cache.load(key);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(write_unit_summary(*last), expected);
}

TEST_F(CacheTest, EvictionRacingAStoreNeverReturnsAWrongSummaryOrWaits) {
  // One thread keeps corrupting the entry and loading it, which evicts it,
  // while another keeps storing. An eviction may unlink a fresh entry (one
  // re-analysis, by design), but a load that hits must return the stored
  // summary, and neither side ever waits on the other. An unlocked write,
  // read or unlink takes well under a millisecond; a lock-file lock with
  // sleep backoff starves one side of this loop for longer than the bound.
  // A lock wait recurs every round while a scheduler or disk-journal stall
  // does not, so the race runs three rounds and the best one must keep every
  // call under the bound.
  const SummaryCache cache(dir_, true);
  const UnitSummary unit = sample_unit();
  const std::string expected = write_unit_summary(unit);
  const std::string key = SummaryCache::key_for("s.f", "t", Language::Fortran, "f");
  const fs::path path = cache.entry_path(key);
  const std::string junk = "ARA-UNIT-CACHE v1\nkey " + key + "\ncorrupt\n";
  constexpr int kRounds = 3;
  constexpr int kStoresPerRound = 3000;
  constexpr std::chrono::milliseconds kMaxCall{100};
  using Clock = std::chrono::steady_clock;

  std::atomic<int> failed_stores{0};
  int hits = 0;
  int wrong = 0;
  Clock::duration best_round = Clock::duration::max();
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> done{false};
    Clock::duration slowest_store{};
    std::thread storer([&] {
      for (int i = 0; i < kStoresPerRound; ++i) {
        const auto start = Clock::now();
        if (!cache.store(key, unit)) ++failed_stores;
        slowest_store = std::max(slowest_store, Clock::now() - start);
      }
      done.store(true);
    });
    Clock::duration slowest_load{};
    while (!done.load()) {
      spit(path, junk);
      const auto start = Clock::now();
      const std::optional<UnitSummary> got = cache.load(key);
      slowest_load = std::max(slowest_load, Clock::now() - start);
      if (got) {
        ++hits;  // a fresh entry landed between the corruption and the load
        if (write_unit_summary(*got) != expected) ++wrong;
      }
    }
    storer.join();
    best_round = std::min(best_round, std::max(slowest_store, slowest_load));
  }

  EXPECT_EQ(failed_stores.load(), 0);
  EXPECT_EQ(wrong, 0) << "of " << hits << " hits";
  EXPECT_GT(counter("serve.cache_evictions"), 0u);
  EXPECT_LT(best_round, kMaxCall)
      << "slowest call of the best round: "
      << std::chrono::duration_cast<std::chrono::milliseconds>(best_round).count() << " ms";
}

}  // namespace
}  // namespace ara::serve
