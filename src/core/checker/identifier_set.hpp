/**
 * @file
 * The identifier set (paper §2.3, §4): the signature of a growing log
 * sequence, holding every identifier seen in its messages.
 *
 * Identifiers are interned tokens (logging::IdToken), not strings:
 * overlap and symmetric-difference queries are linear merges of sorted
 * integer vectors. All query methods take a *sorted-unique* token view
 * — the checker dedupes each message's identifier list once up front
 * (dedupSorted) instead of re-scanning for duplicates per set.
 */

#ifndef CLOUDSEER_CORE_CHECKER_IDENTIFIER_SET_HPP
#define CLOUDSEER_CORE_CHECKER_IDENTIFIER_SET_HPP

#include <vector>

#include "logging/identifier_interner.hpp"

namespace cloudseer::core {

/**
 * Sorted-unique token set tuned for the checker's access pattern:
 * small sets (tens of entries), frequent overlap queries against tiny
 * message identifier views, occasional inserts and unions.
 */
class IdentifierSet
{
  public:
    IdentifierSet() = default;

    /** Construct from message tokens (any order, duplicates ok). */
    explicit IdentifierSet(const std::vector<logging::IdToken> &values);

    /** Sorted-unique copy of a message's token list (the view the
     *  query methods expect). */
    static std::vector<logging::IdToken>
    dedupSorted(const std::vector<logging::IdToken> &values);

    /** Number of tokens shared with a sorted-unique view. */
    int overlap(const std::vector<logging::IdToken> &sorted_unique) const;

    /**
     * Size of the symmetric difference with a sorted-unique view — the
     * paper's tie-breaking heuristic ("least difference").
     */
    int symmetricDifference(
        const std::vector<logging::IdToken> &sorted_unique) const;

    /**
     * Insert message tokens (the paper's ID ∪ m.Sv); the view must be
     * sorted-unique.
     *
     * @param added Receives the tokens that were actually new to the
     *        set when non-null (routing-index maintenance).
     */
    void insert(const std::vector<logging::IdToken> &sorted_unique,
                std::vector<logging::IdToken> *added = nullptr);

    /** Union with another set. */
    void unionWith(const IdentifierSet &other);

    /** Replace the contents with a sorted-unique view, in this set's
     *  own buffer. */
    void
    assign(const std::vector<logging::IdToken> &sorted_unique)
    {
        items.assign(sorted_unique.begin(), sorted_unique.end());
    }

    /** Remove every token, keeping the buffer. */
    void clear() { items.clear(); }

    /** Membership test. */
    bool contains(logging::IdToken value) const;

    /** Number of tokens. */
    std::size_t size() const { return items.size(); }

    /** True when empty. */
    bool empty() const { return items.empty(); }

    /** Sorted contents (for the routing index, tests, reports). */
    const std::vector<logging::IdToken> &values() const { return items; }

  private:
    std::vector<logging::IdToken> items; // sorted, unique
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_CHECKER_IDENTIFIER_SET_HPP
