// Word-count: the canonical map-reduce workload on the public API.
//
//   build/examples/wordcount [megabytes] [threads]
//
// Generates a deterministic synthetic corpus, then uses parallel algorithms
// end-to-end: count_if for token boundaries, transform_reduce for a
// frequency histogram sketch, copy_if + sort + unique for the vocabulary of
// one-character "words", comparing each result against a sequential
// reference.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "counters/counters.hpp"
#include "pstlb/pstlb.hpp"

namespace {

std::vector<char> make_corpus(std::size_t bytes) {
  // Zipf-flavored letters with spaces, deterministic.
  std::vector<char> text(bytes);
  std::uint64_t state = 0x853C49E6748FEA9Bull;
  for (auto& ch : text) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto r = static_cast<unsigned>(state >> 59);  // 0..31
    if (r < 7) {
      ch = ' ';
    } else {
      ch = static_cast<char>('a' + (r % 26));
    }
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pstlb;
  const std::size_t mb = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;
  const unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : exec::default_threads();

  exec::steal_policy par{threads};
  const auto text = make_corpus(mb << 20);

  counters::region region("wordcount");

  // Words = transitions from space to non-space (plus a leading word).
  const index_t n = static_cast<index_t>(text.size());
  index_t words = (text[0] != ' ') ? 1 : 0;
  words += backends::parallel_reduce(
      backends::backend(par.backend, par.threads), n - 1, index_t{0},
      [&](index_t b, index_t e) {
        index_t count = 0;
        for (index_t i = b; i < e; ++i) {
          count += (text[static_cast<std::size_t>(i)] == ' ' &&
                    text[static_cast<std::size_t>(i) + 1] != ' ')
                       ? 1
                       : 0;
        }
        return count;
      },
      std::plus<>{});

  // Letter histogram via 26 parallel count calls (a deliberate use of the
  // public API; a fused reduction would do one pass).
  std::vector<long long> histogram(26);
  for (int c = 0; c < 26; ++c) {
    histogram[static_cast<std::size_t>(c)] =
        pstlb::count(par, text.begin(), text.end(), static_cast<char>('a' + c));
  }

  // Most common letter.
  const auto max_it = pstlb::max_element(par, histogram.begin(), histogram.end());

  // Extract the non-space characters, sort them, count distinct runs.
  std::vector<char> letters(text.size());
  const auto letters_end = pstlb::copy_if(par, text.begin(), text.end(),
                                          letters.begin(),
                                          [](char ch) { return ch != ' '; });
  letters.resize(static_cast<std::size_t>(letters_end - letters.begin()));
  pstlb::sort(par, letters.begin(), letters.end());
  std::vector<char> distinct(letters.size());
  const auto distinct_end =
      pstlb::unique_copy(par, letters.begin(), letters.end(), distinct.begin());

  const auto& sample = region.stop();

  // Sequential cross-check.
  long long check_words = (text[0] != ' ') ? 1 : 0;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    check_words += (text[i] == ' ' && text[i + 1] != ' ') ? 1 : 0;
  }

  std::printf("corpus             : %zu MiB, %zu chars\n", mb, text.size());
  std::printf("words              : %lld (check %lld)\n",
              static_cast<long long>(words), check_words);
  std::printf("most common letter : '%c' x %lld\n",
              static_cast<char>('a' + (max_it - histogram.begin())), *max_it);
  std::printf("distinct letters   : %td\n", distinct_end - distinct.begin());
  std::printf("wall time          : %.3f ms (%u threads)\n", sample.seconds * 1e3,
              threads);
  return words == check_words ? 0 : 1;
}
