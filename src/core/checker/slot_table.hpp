/**
 * @file
 * Dense slot storage for the checker's cross-message state (DESIGN.md
 * §19): a pool of reusable slots, a flat open-addressed index from
 * 64-bit keys to slots, and a live-id order that finds a slot by id.
 *
 * A retired slot keeps the buffers its last occupant grew (a group's
 * arena and history, a set's token and member vectors, a posting list)
 * so the next occupant refills them in place. Free slots beyond the
 * live count plus kSpareSlotFloor give their buffers back, and a chunk
 * with no occupant left is freed whole, so held memory follows live
 * work rather than the peak.
 */

#ifndef CLOUDSEER_CORE_CHECKER_SLOT_TABLE_HPP
#define CLOUDSEER_CORE_CHECKER_SLOT_TABLE_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"

namespace cloudseer::core {

/** Slot number in a SlotPool; kNoSlot is "none". */
using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = 0xffffffffu;

/** Free slots that may stay allocated beyond the live count. */
inline constexpr std::size_t kSpareSlotFloor = 64;

/** Slots per SlotPool chunk: the unit in which a pool allocates and
 *  frees. */
inline constexpr std::size_t kSlotChunk = 8;

/**
 * Slots of T. Slots live in chunks of kSlotChunk that never move, so a
 * reference to a slot stays valid while other slots are acquired, and
 * finding a slot is one shift and one mask. acquire() hands out the
 * lowest free slot, so occupants gather in the low chunks and the high
 * ones drain. While more than live() + kSpareSlotFloor slots are free,
 * a retired slot gives its buffers back, or, when its chunk has no
 * occupant left, the whole chunk is freed.
 */
template <typename T>
class SlotPool
{
  public:
    /**
     * A slot for a new occupant. A reused slot holds whatever its last
     * occupant left there; the caller overwrites it.
     */
    Slot
    acquire()
    {
        std::size_t word = firstFree;
        while (word < freeBits.size() && freeBits[word] == 0)
            ++word;
        if (word == freeBits.size()) {
            // Every slot is occupied: open a chunk at the end.
            const std::size_t chunk = chunks.size();
            chunks.emplace_back();
            word = chunk / kChunksPerWord;
            if (word == freeBits.size())
                freeBits.push_back(0);
            freeBits[word] |= chunkMask(chunk);
        }
        firstFree = word;
        const Slot slot = static_cast<Slot>(
            word * 64 +
            static_cast<std::size_t>(std::countr_zero(freeBits[word])));
        const std::size_t chunk = slot / kSlotChunk;
        if (!chunks[chunk]) {
            chunks[chunk] = std::make_unique<T[]>(kSlotChunk);
            held += kSlotChunk;
        } else if (chunkEmpty(chunk)) {
            --emptyChunks;
        }
        freeBits[word] &= freeBits[word] - 1;
        ++occupied;
        return slot;
    }

    /** Retire `slot`, which must be occupied. */
    void
    release(Slot slot)
    {
        freeBits[slot / 64] |= std::uint64_t{1} << (slot % 64);
        firstFree = std::min<std::size_t>(firstFree, slot / 64);
        --occupied;
        const std::size_t chunk = slot / kSlotChunk;
        if (chunkEmpty(chunk))
            ++emptyChunks;
        if (!surplus())
            return;
        if (chunkEmpty(chunk))
            freeChunk(chunk);
        else
            (*this)[slot] = T();
        // Chunks left empty while there was no surplus go now, the
        // highest first. Each pass frees at least one, and a drain frees
        // most chunks through the line above, so passes stay rare.
        for (std::size_t c = chunks.size(); c-- > 0 && emptyChunks > 0 &&
                                            surplus();) {
            if (chunks[c] && chunkEmpty(c))
                freeChunk(c);
        }
        // Freed chunks at the end leave the pool, so its bookkeeping
        // shrinks with it.
        while (!chunks.empty() && !chunks.back()) {
            const std::size_t last = chunks.size() - 1;
            freeBits[last / kChunksPerWord] &= ~chunkMask(last);
            chunks.pop_back();
        }
        freeBits.resize((chunks.size() + kChunksPerWord - 1) / kChunksPerWord);
        firstFree = std::min(firstFree, freeBits.size());
    }

    T &
    operator[](Slot slot)
    {
        return chunks[slot / kSlotChunk][slot % kSlotChunk];
    }
    const T &
    operator[](Slot slot) const
    {
        return chunks[slot / kSlotChunk][slot % kSlotChunk];
    }

    /** Occupied slots. */
    std::size_t live() const { return occupied; }

    /** Slots in allocated chunks, occupied or free. Chunks with no
     *  occupant are freed while more than live() + kSpareSlotFloor
     *  slots are free, so this stays within kSlotChunk x live() +
     *  kSpareSlotFloor. */
    std::size_t slots() const { return held; }

    /** Free slots in allocated chunks. */
    std::size_t spares() const { return held - occupied; }

    /** Drop every slot and its buffers. */
    void
    clear()
    {
        chunks.clear();
        freeBits.clear();
        firstFree = 0;
        held = 0;
        occupied = 0;
        emptyChunks = 0;
    }

  private:
    static constexpr std::size_t kChunksPerWord = 64 / kSlotChunk;

    static std::uint64_t
    chunkMask(std::size_t chunk)
    {
        return ((std::uint64_t{1} << kSlotChunk) - 1)
               << (chunk % kChunksPerWord * kSlotChunk);
    }

    /** Whether every slot of `chunk` is free. */
    bool
    chunkEmpty(std::size_t chunk) const
    {
        return (freeBits[chunk / kChunksPerWord] & chunkMask(chunk)) ==
               chunkMask(chunk);
    }

    /** Give back `chunk`, which is allocated and has no occupant. */
    void
    freeChunk(std::size_t chunk)
    {
        chunks[chunk].reset();
        held -= kSlotChunk;
        --emptyChunks;
    }

    /** More free slots are allocated than the trim bound allows. */
    bool surplus() const { return held - occupied > occupied + kSpareSlotFloor; }

    /** Chunks by index, null once freed. A freed chunk's slots stay
     *  marked free; acquiring one allocates the chunk again. */
    std::vector<std::unique_ptr<T[]>> chunks;
    /** One bit per slot of every chunk, set while the slot is free. */
    std::vector<std::uint64_t> freeBits;
    /** No word of freeBits below this one has a free slot. */
    std::size_t firstFree = 0;
    std::size_t held = 0;     ///< slots in allocated chunks
    std::size_t occupied = 0; ///< slots handed out and not released
    std::size_t emptyChunks = 0; ///< allocated chunks with no occupant
};

/**
 * Flat open-addressed multimap from a 64-bit key to a Slot, with linear
 * probing and backward-shift deletion (no tombstones). The table is a
 * power of two at most 3/4 full. Above kShrinkFloor entries it halves
 * when it falls under 1/8 full, so its size follows the live entry
 * count; a table at or below the floor (1 KB) keeps its size, so small
 * live sets that drain and refill never reallocate. Keys are spread
 * by a Fibonacci multiply, so dense ids and tokens probe well.
 */
class SlotIndex
{
  public:
    /** First slot stored under `key`, or kNoSlot. */
    Slot
    find(std::uint64_t key) const
    {
        if (entries.empty())
            return kNoSlot;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            const Entry &entry = entries[i];
            if (entry.slot == kNoSlot || entry.key == key)
                return entry.slot;
        }
    }

    /** Call fn(slot) for every slot stored under `key`. */
    template <typename Fn>
    void
    forEach(std::uint64_t key, Fn &&fn) const
    {
        if (entries.empty())
            return;
        for (std::size_t i = home(key); entries[i].slot != kNoSlot;
             i = (i + 1) & mask()) {
            if (entries[i].key == key)
                fn(entries[i].slot);
        }
    }

    /** Call fn(key, slot) for every entry, in table order. */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (const Entry &entry : entries) {
            if (entry.slot != kNoSlot)
                fn(entry.key, entry.slot);
        }
    }

    /** Store `slot` under `key`; an existing entry under `key` stays. */
    void
    insert(std::uint64_t key, Slot slot)
    {
        if ((count + 1) * 4 > entries.size() * 3)
            rehash(entries.empty() ? kMinEntries : entries.size() * 2);
        std::size_t i = home(key);
        while (entries[i].slot != kNoSlot)
            i = (i + 1) & mask();
        entries[i] = Entry{key, slot};
        ++count;
    }

    /** Remove the entry (key, slot), which must be present. */
    void
    erase(std::uint64_t key, Slot slot)
    {
        std::size_t hole = home(key);
        while (entries[hole].key != key || entries[hole].slot != slot)
            hole = (hole + 1) & mask();
        // Backward shift: pull each later entry of the cluster into the
        // hole unless the hole lies before its home position.
        for (std::size_t next = (hole + 1) & mask();
             entries[next].slot != kNoSlot; next = (next + 1) & mask()) {
            const std::size_t want = home(entries[next].key);
            if (((next - want) & mask()) >= ((next - hole) & mask())) {
                entries[hole] = entries[next];
                hole = next;
            }
        }
        entries[hole].slot = kNoSlot;
        --count;
        if (entries.size() > kShrinkFloor && count * 8 < entries.size())
            rehash(entries.size() / 2);
    }

    /** Entries stored. */
    std::size_t size() const { return count; }

    /** Table size in entries (a power of two, or 0 before the first
     *  insert). */
    std::size_t capacity() const { return entries.size(); }

    /** Remove every entry, keeping the table. */
    void
    clear()
    {
        for (Entry &entry : entries)
            entry.slot = kNoSlot;
        count = 0;
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        Slot slot = kNoSlot;
    };

    static constexpr std::size_t kMinEntries = 16;
    static constexpr std::size_t kShrinkFloor = 64;

    std::size_t mask() const { return entries.size() - 1; }

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    void
    rehash(std::size_t size)
    {
        std::vector<Entry> old(size);
        old.swap(entries);
        shift = 64;
        for (std::size_t s = size; s > 1; s >>= 1)
            --shift;
        for (const Entry &entry : old) {
            if (entry.slot == kNoSlot)
                continue;
            std::size_t i = home(entry.key);
            while (entries[i].slot != kNoSlot)
                i = (i + 1) & mask();
            entries[i] = entry;
        }
    }

    std::vector<Entry> entries;
    std::size_t count = 0;
    unsigned shift = 64;
};

/**
 * The live ids of one kind, each with its slot: found by id through a
 * SlotIndex, and walked in ascending id, the order every walk that
 * fixes output order follows. New ids exceed every id seen, so insert()
 * appends. erase() marks the entry dead where it stands and compacts
 * once the dead outnumber the live, so a retirement costs amortised
 * O(1) and the storage follows the live count. Iteration skips dead
 * entries; erase() invalidates positions and iterators.
 */
class LiveOrder
{
  public:
    struct Entry
    {
        std::uint64_t id = 0;
        Slot slot = kNoSlot; ///< kNoSlot marks a dead entry
    };

    /** Slot of the live id `id`, or kNoSlot. */
    Slot
    find(std::uint64_t id) const
    {
        return byId.find(id);
    }

    /** Append `id`, which must exceed lastId(). */
    void
    insert(std::uint64_t id, Slot slot)
    {
        entries.push_back({id, slot});
        byId.insert(id, slot);
    }

    /** Largest live id (0 when none). */
    std::uint64_t
    lastId() const
    {
        return entries.empty() ? 0 : entries.back().id;
    }

    /** Retire the live id `id`. */
    void
    erase(std::uint64_t id)
    {
        const std::size_t position = lowerPosition(id);
        CS_ASSERT(position < entries.size() && entries[position].id == id &&
                      entries[position].slot != kNoSlot,
                  "retiring an id that is not live");
        byId.erase(id, entries[position].slot);
        entries[position].slot = kNoSlot;
        ++dead;
        // Dead entries at the end go at once, so the last entry is
        // always live.
        while (!entries.empty() && entries.back().slot == kNoSlot) {
            entries.pop_back();
            --dead;
        }
        if (dead > size())
            compact();
    }

    /** Add an entry in any order while restoring an image; sort() must
     *  follow before any other call. */
    void
    appendUnsorted(std::uint64_t id, Slot slot)
    {
        entries.push_back({id, slot});
        byId.insert(id, slot);
    }

    /** Put appendUnsorted() entries in order; false when two share an
     *  id. */
    bool
    sort()
    {
        std::sort(entries.begin(), entries.end(),
                  [](const Entry &a, const Entry &b) { return a.id < b.id; });
        return std::adjacent_find(entries.begin(), entries.end(),
                                  [](const Entry &a, const Entry &b) {
                                      return a.id == b.id;
                                  }) == entries.end();
    }

    /** Live ids. */
    std::size_t size() const { return entries.size() - dead; }
    bool empty() const { return entries.empty(); }

    /** Entries held, live or dead: positions run below this. */
    std::size_t span() const { return entries.size(); }

    /** Entry at `position`; its slot is kNoSlot when it is dead. */
    const Entry &at(std::size_t position) const { return entries[position]; }

    /** First position whose id exceeds `id`. */
    std::size_t
    positionAfter(std::uint64_t id) const
    {
        return static_cast<std::size_t>(
            std::upper_bound(entries.begin(), entries.end(), id,
                             [](std::uint64_t key, const Entry &entry) {
                                 return key < entry.id;
                             }) -
            entries.begin());
    }

    /** Entries of order storage held, for footprint checks. */
    std::size_t capacity() const { return entries.capacity(); }

    /** Entries of the id -> slot table, for footprint checks. */
    std::size_t indexCapacity() const { return byId.capacity(); }

    void
    clear()
    {
        entries.clear();
        byId.clear();
        dead = 0;
    }

    /** Forward iterator over the live entries. */
    class Iterator
    {
      public:
        Iterator(const Entry *at_, const Entry *end_) : at(at_), end(end_)
        {
            skipDead();
        }
        const Entry &operator*() const { return *at; }
        Iterator &
        operator++()
        {
            ++at;
            skipDead();
            return *this;
        }
        bool operator!=(const Iterator &other) const { return at != other.at; }

      private:
        void
        skipDead()
        {
            while (at != end && at->slot == kNoSlot)
                ++at;
        }
        const Entry *at;
        const Entry *end;
    };
    Iterator
    begin() const
    {
        return {entries.data(), entries.data() + entries.size()};
    }
    Iterator
    end() const
    {
        return {entries.data() + entries.size(),
                entries.data() + entries.size()};
    }

  private:
    /** Storage of at most this many entries is never shrunk. */
    static constexpr std::size_t kShrinkFloor = 64;

    /** First position whose id is at least `id`. */
    std::size_t
    lowerPosition(std::uint64_t id) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(entries.begin(), entries.end(), id,
                             [](const Entry &entry, std::uint64_t key) {
                                 return entry.id < key;
                             }) -
            entries.begin());
    }

    void
    compact()
    {
        entries.erase(std::remove_if(entries.begin(), entries.end(),
                                     [](const Entry &entry) {
                                         return entry.slot == kNoSlot;
                                     }),
                      entries.end());
        dead = 0;
        if (entries.capacity() > kShrinkFloor &&
            entries.size() * 4 < entries.capacity())
            std::vector<Entry>(entries.begin(), entries.end()).swap(entries);
    }

    std::vector<Entry> entries;
    std::size_t dead = 0; ///< dead entries in `entries`
    SlotIndex byId;       ///< live id -> slot
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_CHECKER_SLOT_TABLE_HPP
