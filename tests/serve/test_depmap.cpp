// The persisted reverse-dependency map (ara.deps.v1) behind dependency-
// aware incremental re-analysis: edge bookkeeping, the reverse transitive
// closure (including cycles), total serde — a corrupt deps.map must
// degrade to an empty map (full invalidation), never to junk edges — and
// lock-free publishing: concurrent stores never expose a torn file.
#include "serve/depmap.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace ara::serve {
namespace {

namespace fs = std::filesystem;

std::set<std::string> closure(const DepMap& map, const std::set<std::string>& changed) {
  return map.dependents_closure(changed);
}

TEST(DepMap, SetSortsDedupsAndDropsSelfEdges) {
  DepMap map;
  map.set("a.c", UnitDeps{{"g", "g", "f"}, {"b.c", "a.c", "b.c", "c.c"}});
  const UnitDeps* deps = map.find("a.c");
  ASSERT_NE(deps, nullptr);
  EXPECT_EQ(deps->imports, (std::vector<std::string>{"f", "g"}));
  EXPECT_EQ(deps->deps, (std::vector<std::string>{"b.c", "c.c"}));  // no a.c
}

TEST(DepMap, RemoveForgetsTheUnit) {
  DepMap map;
  map.set("a.c", UnitDeps{{}, {"b.c"}});
  map.set("b.c", UnitDeps{{}, {}});
  map.remove("a.c");
  EXPECT_EQ(map.find("a.c"), nullptr);
  EXPECT_EQ(map.size(), 1u);
  // b.c changing no longer drags the removed unit in.
  EXPECT_EQ(closure(map, {"b.c"}), (std::set<std::string>{"b.c"}));
}

TEST(DepMap, ClosureIsTransitive) {
  // c depends on b depends on a: editing a must re-analyze all three;
  // editing b leaves a alone; d is independent throughout.
  DepMap map;
  map.set("a", UnitDeps{{}, {}});
  map.set("b", UnitDeps{{}, {"a"}});
  map.set("c", UnitDeps{{}, {"b"}});
  map.set("d", UnitDeps{{}, {}});
  EXPECT_EQ(closure(map, {"a"}), (std::set<std::string>{"a", "b", "c"}));
  EXPECT_EQ(closure(map, {"b"}), (std::set<std::string>{"b", "c"}));
  EXPECT_EQ(closure(map, {"d"}), (std::set<std::string>{"d"}));
}

TEST(DepMap, ClosureHandlesCycles) {
  // a <-> b mutual recursion plus c hanging off b: any seed inside the
  // cycle pulls in the whole cycle and its dependents, and the BFS
  // terminates.
  DepMap map;
  map.set("a", UnitDeps{{}, {"b"}});
  map.set("b", UnitDeps{{}, {"a"}});
  map.set("c", UnitDeps{{}, {"b"}});
  EXPECT_EQ(closure(map, {"a"}), (std::set<std::string>{"a", "b", "c"}));
  EXPECT_EQ(closure(map, {"c"}), (std::set<std::string>{"c"}));
}

TEST(DepMap, ClosureOfUnknownUnitIsItself) {
  DepMap map;
  map.set("a", UnitDeps{{}, {}});
  EXPECT_EQ(closure(map, {"new.c"}), (std::set<std::string>{"new.c"}));
}

TEST(DepMap, SerdeRoundTripsIncludingFunnyNames) {
  DepMap map;
  map.set("dir/unit with spaces.c", UnitDeps{{"g1"}, {"other unit.c"}});
  map.set("plain.f", UnitDeps{{}, {"dir/unit with spaces.c"}});

  const std::optional<DepMap> back = DepMap::parse(map.write());
  ASSERT_TRUE(back.has_value());
  ASSERT_NE(back->find("dir/unit with spaces.c"), nullptr);
  EXPECT_EQ(back->find("dir/unit with spaces.c")->imports,
            (std::vector<std::string>{"g1"}));
  ASSERT_NE(back->find("plain.f"), nullptr);
  EXPECT_EQ(back->find("plain.f")->deps,
            (std::vector<std::string>{"dir/unit with spaces.c"}));
  EXPECT_EQ(back->unit_names(), map.unit_names());
}

TEST(DepMap, ParseRejectsCorruptInputTotally) {
  for (const char* junk : {
           "",                       // empty
           "NOT-DEPS 1\nunits 0\n",  // wrong magic
           "ARA-DEPS 2\nunits 0\n",  // wrong version
           "ARA-DEPS 1\nunits 1\n",  // truncated
           "ARA-DEPS 1\nunits 1\nunit a 99999999 0\n",  // absurd count
       }) {
    EXPECT_FALSE(DepMap::parse(junk).has_value()) << '"' << junk << '"';
  }
}

TEST(DepMap, LoadOfMissingOrCorruptFileIsEmpty) {
  const fs::path dir = fs::temp_directory_path() / "ara_depmap_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  EXPECT_TRUE(DepMap::load(dir).empty());

  std::ofstream(DepMap::path_in(dir)) << "garbage\n";
  EXPECT_TRUE(DepMap::load(dir).empty());

  DepMap map;
  map.set("a.c", UnitDeps{{"g"}, {"b.c"}});
  ASSERT_TRUE(DepMap::store(dir, map));
  const DepMap back = DepMap::load(dir);
  ASSERT_NE(back.find("a.c"), nullptr);
  EXPECT_EQ(back.find("a.c")->deps, (std::vector<std::string>{"b.c"}));
  fs::remove_all(dir);
}

TEST(DepMap, ConcurrentStoresNeverPublishATornMap) {
  // Eight writers (threads here; processes or daemon projects sharing a
  // cache dir in practice) each publish their own 200-unit map 300 times
  // while a reader parses deps.map. Every store writes its own temp file and
  // renames it, so every read is one writer's complete map.
  const fs::path dir =
      fs::temp_directory_path() / ("ara_depmap_race_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  constexpr int kWriters = 8;
  constexpr int kStoresEach = 300;
  constexpr int kUnits = 200;

  std::vector<DepMap> maps(kWriters);
  std::set<std::string> texts;
  for (int w = 0; w < kWriters; ++w) {
    const std::string prefix = "w" + std::to_string(w) + "_u";
    for (int u = 0; u < kUnits; ++u) {
      maps[w].set(prefix + std::to_string(u) + ".f",
                  UnitDeps{{"g" + std::to_string(u)},
                           {prefix + std::to_string((u + 1) % kUnits) + ".f"}});
    }
    texts.insert(maps[w].write());
  }

  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failed_stores{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kStoresEach; ++i) {
        if (!DepMap::store(dir, maps[w])) ++failed_stores;
      }
      --writers_left;
    });
  }
  int reads = 0;
  int unparsable = 0;
  int foreign = 0;
  while (writers_left.load() > 0) {
    std::ifstream in(DepMap::path_in(dir), std::ios::binary);
    if (!in) continue;  // before the first rename; rename never removes it
    std::ostringstream buf;
    buf << in.rdbuf();
    ++reads;
    if (!DepMap::parse(buf.str()).has_value()) {
      ++unparsable;
    } else if (texts.count(buf.str()) == 0) {
      ++foreign;
    }
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(failed_stores.load(), 0) << "of " << kWriters * kStoresEach << " stores";
  EXPECT_EQ(unparsable, 0) << "of " << reads << " reads";
  EXPECT_EQ(foreign, 0) << "reads that parsed but match no writer's map";
  EXPECT_GT(reads, 0);
  EXPECT_EQ(texts.count(DepMap::load(dir).write()), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ara::serve
