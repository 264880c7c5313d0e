/**
 * @file
 * Interns identifier values (UUIDs, IPs) to dense integer tokens.
 *
 * The checker's routing structures (identifier sets, the inverted
 * routing index) operate on IdToken, not strings: overlap queries
 * become integer merges and posting-list lookups instead of string
 * comparisons. Tokens are assigned in first-seen order; the numbering
 * is an implementation detail — no checker behaviour depends on token
 * order, only on token identity.
 *
 * The process-wide instance (IdentifierInterner::process()) is what
 * the monitor's extraction path uses, mirroring how TemplateCatalog
 * owns template text. Unlike templates, the identifier universe is
 * unbounded (every VM boot mints fresh UUIDs); the interner therefore
 * grows for the life of the process unless a capacity is configured
 * (seer-vault, DESIGN.md §13): at capacity, intern() refuses new
 * identifiers with kInvalidIdToken and tallies the rejection, so a
 * hostile identifier flood degrades routing precision instead of
 * memory. Epoch-based compaction once all id-sets referencing a token
 * have retired is still future work (DESIGN.md §9).
 *
 * Layout (DESIGN.md §9.2): each text is one std::string in a deque,
 * which never moves its elements, so text() hands out a stable
 * reference. The index is a flat open-addressed table of 4-byte slots
 * (power-of-two capacity, linear probing, load at most 3/4) holding
 * token + 1, with 0 for an empty slot; a parallel per-token hash lets
 * a probe compare hashes before it touches text, and lets growth
 * re-slot every entry without re-hashing a string. A new identifier
 * therefore costs one heap allocation (its text, when it is longer
 * than the string's inline buffer); a 36-character UUID costs 85
 * bytes in all with glibc (alloc_budget_test pins both).
 *
 * Snapshot/restore (seer-vault): snapshotState writes the full
 * token→text table; restoreState re-interns each text in token order
 * and demands the resulting token match the saved one. That holds in
 * the process that wrote the snapshot (tokens are stable and the
 * table only grows) and in a fresh process whose interner has not
 * diverged — restoring over an incompatible table refuses rather
 * than silently renumbering, because checker state stores raw tokens.
 * The table layout is never serialised.
 */

#ifndef CLOUDSEER_LOGGING_IDENTIFIER_INTERNER_HPP
#define CLOUDSEER_LOGGING_IDENTIFIER_INTERNER_HPP

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.hpp"

namespace cloudseer::logging {

/** Dense identifier token; valid tokens index the interner's table. */
using IdToken = std::uint32_t;

/** Sentinel for "not interned". */
constexpr IdToken kInvalidIdToken = 0xffffffffu;

/** Table health counters (seer-scope, DESIGN.md §11). */
struct InternerStats
{
    std::size_t size = 0;       ///< distinct identifiers interned
    std::uint64_t hits = 0;     ///< intern() served from the table
    std::uint64_t misses = 0;   ///< intern() minted a new token
    std::size_t capacity = 0;   ///< configured growth cap (0 = none)
    std::uint64_t capRejected = 0; ///< intern() refusals at capacity

    /** Fraction of intern() calls served from the table. */
    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Registry of identifier values seen during checking. */
class IdentifierInterner
{
  public:
    /**
     * Intern a value; returns a stable dense token — or
     * kInvalidIdToken when a capacity is configured, the table is
     * full, and the value is new (the rejection is tallied).
     */
    IdToken intern(std::string_view value);

    /** Look up without interning; kInvalidIdToken when unknown. */
    IdToken find(std::string_view value) const;

    /** Original text of a token. */
    const std::string &text(IdToken token) const;

    /** Number of interned identifiers. */
    std::size_t size() const;

    /** Table size and hit/miss tallies since process start. */
    InternerStats stats() const;

    /**
     * Hard growth cap (seer-vault, DESIGN.md §13). 0 disables the cap
     * (the default — bit-identical to the uncapped interner). A cap
     * below the current size only blocks further growth; existing
     * tokens stay valid.
     */
    void setCapacity(std::size_t max_entries);

    /** Configured growth cap (0 = unlimited). */
    std::size_t capacityLimit() const;

    /**
     * Serialise the table and tallies (seer-vault). The token→text
     * table is written in token order, so restore can reproduce the
     * exact numbering.
     */
    void snapshotState(common::BinWriter &out) const;

    /**
     * Restore a snapshotState image by re-interning every text in
     * token order. Fails (returns false, table untouched beyond the
     * re-interns already applied) when any text resolves to a token
     * other than the saved one — i.e. when this process's table has
     * diverged from the snapshot's — and, before touching the table,
     * when the entry count is more than the rest of the image could
     * hold. The index is sized once for the image's entries. Tallies
     * and the capacity are overwritten on success.
     */
    bool restoreState(common::BinReader &in);

    /** The process-wide instance the extraction path interns into. */
    static IdentifierInterner &process();

  private:
    /** Slot that holds `value`, or the empty slot where it would go.
     *  The table must not be empty. */
    std::size_t slotOf(std::string_view value, std::uint32_t hash) const;

    /** First empty slot on `hash`'s probe path. */
    std::size_t freeSlot(std::uint32_t hash) const;

    /** Give `value` the next token; `slot` is its empty slot in the
     *  current table (re-found if the table grows). */
    IdToken append(std::string_view value, std::uint32_t hash,
                   std::size_t slot);

    /** Grow the table, if needed, so that `entries` fit at load 3/4. */
    void reserveEntries(std::size_t entries);

    /** token -> text. A deque never moves its elements, so text()
     *  references stay valid as the table grows. */
    std::deque<std::string> tokens;
    /** Open-addressed index: 0 = empty, otherwise token + 1. */
    std::vector<std::uint32_t> slots;
    /** token -> hash of its text. */
    std::vector<std::uint32_t> hashes;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::size_t maxEntries = 0; ///< 0 = unlimited
    std::uint64_t capRejectedCount = 0;
    mutable std::mutex mutex;
};

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_IDENTIFIER_INTERNER_HPP
