#include "core/checker/identifier_set.hpp"

#include <algorithm>

namespace cloudseer::core {

using logging::IdToken;

IdentifierSet::IdentifierSet(const std::vector<IdToken> &values)
    : items(dedupSorted(values))
{
}

std::vector<IdToken>
IdentifierSet::dedupSorted(const std::vector<IdToken> &values)
{
    std::vector<IdToken> out = values;
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
IdentifierSet::contains(IdToken value) const
{
    return std::binary_search(items.begin(), items.end(), value);
}

int
IdentifierSet::overlap(const std::vector<IdToken> &sorted_unique) const
{
    int shared = 0;
    auto a = items.begin();
    auto b = sorted_unique.begin();
    while (a != items.end() && b != sorted_unique.end()) {
        if (*a < *b) {
            ++a;
        } else if (*b < *a) {
            ++b;
        } else {
            ++shared;
            ++a;
            ++b;
        }
    }
    return shared;
}

int
IdentifierSet::symmetricDifference(
    const std::vector<IdToken> &sorted_unique) const
{
    int shared = overlap(sorted_unique);
    return (static_cast<int>(items.size()) - shared) +
           (static_cast<int>(sorted_unique.size()) - shared);
}

void
IdentifierSet::insert(const std::vector<IdToken> &sorted_unique,
                      std::vector<IdToken> *added)
{
    // Count (and, when asked, report) the genuinely new tokens in one
    // merge walk, then merge them in from the back so the set grows in
    // its own buffer: no staging vector (both inputs sorted-unique, so
    // the result is too).
    if (added != nullptr)
        added->clear();
    std::size_t fresh = 0;
    auto probe = items.begin();
    for (IdToken value : sorted_unique) {
        probe = std::lower_bound(probe, items.end(), value);
        if (probe == items.end() || *probe != value) {
            ++fresh;
            if (added != nullptr)
                added->push_back(value);
        }
    }
    if (fresh == 0)
        return;
    std::size_t kept = items.size();
    std::size_t incoming = sorted_unique.size();
    std::size_t write = kept + fresh;
    items.resize(write);
    while (incoming > 0) {
        IdToken value = sorted_unique[incoming - 1];
        if (kept > 0 && items[kept - 1] >= value) {
            if (items[kept - 1] == value)
                --incoming; // already present; the set's copy moves
            items[--write] = items[--kept];
        } else {
            items[--write] = value;
            --incoming;
        }
    }
}

void
IdentifierSet::unionWith(const IdentifierSet &other)
{
    insert(other.items);
}

} // namespace cloudseer::core
