#include "text/tokenizer.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>

namespace forumcast::text {

namespace {
// Compact stopword list tuned for technical forum prose.
constexpr std::array<std::string_view, 64> kStopwords = {
    "a",    "an",   "and",  "are",  "as",    "at",    "be",    "but",
    "by",   "can",  "do",   "does", "for",   "from",  "get",   "has",
    "have", "how",  "i",    "if",   "in",    "is",    "it",    "its",
    "just", "like", "me",   "my",   "no",    "not",   "of",    "on",
    "or",   "so",   "that", "the",  "then",  "there", "this",  "to",
    "try",  "use",  "using", "want", "was",  "we",    "what",  "when",
    "where", "which", "while", "who", "why", "will",  "with",  "would",
    "you",  "your", "am",   "any",  "been",  "did",   "dont",  "im",
};

// Every stopword is at most five bytes, so a candidate packs into one
// nonzero 64-bit key (its length above its bytes) and the list becomes an
// open-addressed table at load factor 1/2: one multiply and a probe or two
// per token instead of a scan of all 64 words.
constexpr std::size_t kMaxStopwordLength = 5;

constexpr std::uint64_t pack(std::string_view word) {
  std::uint64_t key = word.size();
  for (char ch : word) key = (key << 8) | static_cast<unsigned char>(ch);
  return key;
}

constexpr std::size_t slot_of(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 57);  // 7 bits
}

constexpr std::array<std::uint64_t, 128> kStopwordTable = [] {
  std::array<std::uint64_t, 128> table{};
  for (std::string_view word : kStopwords) {
    if (word.empty() || word.size() > kMaxStopwordLength) throw "bad stopword";
    std::size_t slot = slot_of(pack(word));
    while (table[slot] != 0) slot = (slot + 1) % table.size();
    table[slot] = pack(word);
  }
  return table;
}();

bool is_number(std::string_view token) {
  return std::all_of(token.begin(), token.end(), [](char ch) {
    return std::isdigit(static_cast<unsigned char>(ch));
  });
}
}  // namespace

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

bool Tokenizer::is_stopword(std::string_view token) {
  if (token.empty() || token.size() > kMaxStopwordLength) return false;
  const std::uint64_t key = pack(token);
  for (std::size_t slot = slot_of(key); kStopwordTable[slot] != 0;
       slot = (slot + 1) % kStopwordTable.size()) {
    if (kStopwordTable[slot] == key) return true;
  }
  return false;
}

std::vector<std::string> Tokenizer::tokenize(std::string_view prose) const {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.empty()) return;
    const bool too_short = current.size() < options_.min_token_length;
    const bool numeric = options_.drop_numbers && is_number(current);
    const bool stop = options_.drop_stopwords && is_stopword(current);
    if (!too_short && !numeric && !stop) tokens.push_back(current);
    current.clear();
  };
  for (char ch : prose) {
    const auto uch = static_cast<unsigned char>(ch);
    if (std::isalnum(uch)) {
      current += static_cast<char>(std::tolower(uch));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

}  // namespace forumcast::text
