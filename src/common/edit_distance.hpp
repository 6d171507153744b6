// Edit distance and the did-you-mean lookup built on it, shared by every
// diagnostic that names a close match for a mistyped name (registry
// algorithms, fault-spec categories and keys, dcolor flags).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace deltacolor {

/// Levenshtein distance. Small strings only: one O(|a| * |b|) row.
inline std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

/// Closest candidate within edit distance 3 (the first on ties), or ""
/// when nothing is close enough to be a plausible typo.
inline std::string_view closest_name(
    std::string_view name, std::span<const std::string_view> candidates) {
  std::string_view best;
  std::size_t best_d = 4;
  for (const std::string_view c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

}  // namespace deltacolor
