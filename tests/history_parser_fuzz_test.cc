// Corruption fuzz for the history parser: seeded byte flips, truncations,
// duplicated, dropped and reordered lines, renamed, added (often
// repeated), dropped and reordered keys, and replaced values, applied to
// the golden logs, the malformed corpus and generator output. On every
// mutant ParseHistory must return the same Status as the generic-object
// reference decoder in tests/oracles (code, line number and message), and
// on success the same events over the same item catalog. The suite runs
// under ASan/UBSan in CI, so a mutant that crashes or reads out of bounds
// fails there too.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzz_env.h"
#include "history/history_generator.h"
#include "history/history_io.h"
#include "oracles/oracles.h"

namespace nse {
namespace {

std::vector<std::string> GoldenLogs() {
  std::vector<std::string> logs;
  for (const auto& entry :
       std::filesystem::directory_iterator(NSE_TEST_DATA_DIR)) {
    if (entry.path().extension() != ".jsonl") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    logs.push_back(text.str());
  }
  std::sort(logs.begin(), logs.end());  // directory order is unspecified
  return logs;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// Spans of the `"key":value` members of a one-line object, located by a
/// plain scan for `"...":` (good enough to aim mutations; the mutant is
/// whatever text results).
struct Member {
  size_t begin = 0;  ///< the key's opening quote
  size_t end = 0;    ///< one past the value (before ',' or '}')
};

std::vector<Member> MembersOf(const std::string& line) {
  std::vector<Member> members;
  size_t pos = 0;
  while ((pos = line.find('"', pos)) != std::string::npos) {
    const size_t close = line.find('"', pos + 1);
    if (close == std::string::npos || close + 1 >= line.size() ||
        line[close + 1] != ':') {
      pos = close == std::string::npos ? line.size() : close + 1;
      continue;
    }
    size_t end = close + 2;
    bool quoted = false;
    while (end < line.size() &&
           (quoted || (line[end] != ',' && line[end] != '}'))) {
      if (line[end] == '"') quoted = !quoted;
      ++end;
    }
    members.push_back({pos, end});
    pos = end;
  }
  return members;
}

const std::vector<std::string> kKeys = {"type", "v",     "txn", "item",
                                        "value", "from", "zz",  "extra"};
const std::vector<std::string> kValues = {
    "0",     "1",    "-1",  "4294967295", "4294967296", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "1.5", "true", "null",
    "\"\"",  "\"a\"", "\"begin\"", "\"history\"", "[1]"};
const std::string kBytes = "{}[]\":,\\/-+.e0123456789tfnu \t\nabcdefrsv";

/// One seeded mutation of `text`.
std::string Mutate(std::string text, Rng& rng) {
  std::vector<std::string> lines = SplitLines(text);
  const uint64_t kind = rng.NextBelow(11);
  if (kind <= 1 || lines.empty()) {
    // Byte flip: a format-significant byte most of the time, else any.
    if (text.empty()) return rng.NextBool() ? "{" : "\n";
    const size_t at = rng.NextBelow(text.size());
    text[at] = rng.NextBool(0.8)
                   ? kBytes[rng.NextBelow(kBytes.size())]
                   : static_cast<char>(rng.NextBelow(256));
    return text;
  }
  if (kind == 2) {
    text.resize(rng.NextBelow(text.size() + 1));  // truncation
    return text;
  }
  const size_t at = rng.NextBelow(lines.size());
  switch (kind) {
    case 3:  // duplicated line
      lines.insert(lines.begin() + at, lines[at]);
      break;
    case 4:  // dropped line
      lines.erase(lines.begin() + at);
      break;
    case 5:  // reordered lines
      std::swap(lines[at], lines[rng.NextBelow(lines.size())]);
      break;
    default: {  // renamed, added, dropped or swapped key, or new value
      std::string& line = lines[at];
      const std::vector<Member> members = MembersOf(line);
      if (members.empty()) break;
      const Member m = members[rng.NextBelow(members.size())];
      const std::string member = line.substr(m.begin, m.end - m.begin);
      const size_t key_end = line.find('"', m.begin + 1);
      if (kind == 6) {
        line.replace(m.begin + 1, key_end - m.begin - 1,
                     kKeys[rng.NextBelow(kKeys.size())]);
      } else if (kind == 7) {
        // A new member, often one the line already has.
        const std::string& key = kKeys[rng.NextBelow(kKeys.size())];
        const std::string& value = kValues[rng.NextBelow(kValues.size())];
        line.insert(m.begin, "\"" + key + "\":" + value + ",");
      } else if (kind == 8) {
        const bool comma_after = m.end < line.size() && line[m.end] == ',';
        line.erase(m.begin, member.size() + (comma_after ? 1 : 0));
      } else if (kind == 9) {
        const Member other = members[rng.NextBelow(members.size())];
        if (other.begin <= m.begin) break;
        // The later member first, so the earlier one's offsets still hold.
        const std::string later =
            line.substr(other.begin, other.end - other.begin);
        line.replace(other.begin, later.size(), member);
        line.replace(m.begin, member.size(), later);
      } else {
        line.replace(key_end + 2, m.end - key_end - 2,
                     kValues[rng.NextBelow(kValues.size())]);
      }
    }
  }
  return JoinLines(lines);
}

void ExpectSameOutcome(const std::string& text) {
  const Result<History> ours = ParseHistory(text);
  const Result<History> reference = oracles::ParseHistoryReference(text);
  ASSERT_EQ(ours.ok(), reference.ok())
      << "ours: " << ours.status() << "\nreference: " << reference.status()
      << "\ninput:\n" << text;
  if (!ours.ok()) {
    EXPECT_EQ(ours.status(), reference.status()) << "input:\n" << text;
    return;
  }
  EXPECT_EQ(ours->events, reference->events) << "input:\n" << text;
  ASSERT_EQ(ours->db.num_items(), reference->db.num_items());
  for (ItemId item = 0; item < ours->db.num_items(); ++item) {
    EXPECT_EQ(ours->db.NameOf(item), reference->db.NameOf(item));
  }
}

TEST(HistoryParserFuzz, MutantsParseLikeTheReference) {
  std::vector<std::string> bases = GoldenLogs();
  ASSERT_FALSE(bases.empty()) << "no golden logs under " << NSE_TEST_DATA_DIR;
  for (const std::string& text : MalformedHistoryCorpus()) {
    bases.push_back(text);
  }
  const size_t fixed_bases = bases.size();
  for (uint64_t seed = 1; seed <= FuzzSeedCount(16); ++seed) {
    bases.resize(fixed_bases);
    bases.push_back(SerializeHistory(DrawHistory(seed)));
    Rng rng(seed);
    for (const std::string& base : bases) {
      ExpectSameOutcome(base);
      for (int mutant = 0; mutant < 8; ++mutant) {
        std::string text = base;
        const int64_t rounds = rng.NextInt(1, 3);
        for (int64_t r = 0; r < rounds; ++r) text = Mutate(text, rng);
        ExpectSameOutcome(text);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace nse
