/**
 * @file
 * The two stateful guards of the hardened ingest (DESIGN.md §8.2):
 * the exact-redelivery window and the reorder buffer.
 *
 * Both run once per line on the production path, so neither moves a
 * string or a whole record per line once it is warm. The dedup window
 * keeps each key once, in a ring slot whose string keeps its capacity,
 * and finds it through a flat hash index. The reorder buffer keeps its
 * records in a slot pool and orders 24-byte handles to them.
 * WorkflowMonitor owns one of each; they are separate classes so tests
 * can drive them directly against the containers they replaced.
 */

#ifndef CLOUDSEER_CORE_MONITOR_INGEST_GUARDS_HPP
#define CLOUDSEER_CORE_MONITOR_INGEST_GUARDS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.hpp"
#include "common/head_queue.hpp"
#include "common/time_util.hpp"
#include "logging/log_record.hpp"

namespace cloudseer::core {

/**
 * Keys seen within a sliding window of monitor time.
 *
 * A power-of-two ring holds every admitted key in arrival order with
 * its time and hash. An open-addressed index (linear probing,
 * backward-shift deletion, load at most 1/2) maps a key's hash to the
 * ring position and time of the key's newest arrival; probes compare
 * hashes first and the ring slot's bytes only on a hash match. Each key
 * is hashed once; expiry reuses the stored hash.
 */
class DedupWindow
{
  public:
    /**
     * Expire every entry older than `now - window`, then record `key`
     * at `now`. Returns true when `key` was still held: the message is
     * a redelivery. An expiring entry drops its key only when no later
     * arrival of the key has a newer time.
     */
    bool admit(std::string_view key, common::SimTime now, double window);

    /** u64 count, then (f64 time, string key) per entry, oldest first. */
    void saveState(common::BinWriter &out) const;

    /** Replace the window with a saveState image; each entry is
     *  inserted or overwrites its key, in order. False on a bad image. */
    bool restoreState(common::BinReader &in);

  private:
    struct Entry
    {
        common::SimTime time = 0.0;
        std::uint64_t hash = 0;
        std::string key; ///< keeps its capacity when the slot is reused
    };

    /** Index slot: where the key's newest arrival sits in the ring. */
    struct Slot
    {
        std::uint64_t hash = 0;
        std::uint64_t pos = kEmpty; ///< absolute ring position
        common::SimTime time = 0.0; ///< newest arrival's time
    };

    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    static constexpr std::size_t kNone = ~std::size_t{0};

    std::vector<Entry> ring;   ///< power-of-two size; pos & (size - 1)
    std::uint64_t head = 0;    ///< position of the oldest entry
    std::uint64_t tail = 0;    ///< position the next entry takes
    std::vector<Slot> index;   ///< power-of-two size
    std::size_t indexed = 0;   ///< occupied index slots

    const Entry &
    at(std::uint64_t pos) const
    {
        return ring[static_cast<std::size_t>(pos) & (ring.size() - 1)];
    }
    Entry &
    at(std::uint64_t pos)
    {
        return ring[static_cast<std::size_t>(pos) & (ring.size() - 1)];
    }

    /** Append `key` at `time`; insert or overwrite its index slot.
     *  Returns true when the key was already indexed. */
    bool record(std::string_view key, std::uint64_t hash,
                common::SimTime time);

    /** Index slot holding `key`, or kNone. */
    std::size_t find(std::uint64_t hash, std::string_view key) const;

    /** Empty `slot`, shifting the rest of its probe run back. */
    void erase(std::size_t slot);

    void growRing();
    void growIndex();
};

/**
 * Records held back until the watermark passes them.
 *
 * The records live in a pool of LogRecord slots with a free list, so a
 * slot's strings keep their capacity from one record to the next. The
 * order is a queue of {timestamp, arrival seq, slot} handles kept
 * sorted by (timestamp, seq); streams are mostly ordered, so an insert
 * scans back from the end and stops after a step or two. Released
 * records are handed out in place, from their slots.
 */
class ReorderBuffer
{
  public:
    /**
     * Storage for the next arrival: a free pool slot, still holding
     * whatever record it held last. Fill it, then insert().
     */
    logging::LogRecord &vacant();

    /** Park the record filled into vacant() as the next arrival and
     *  return the number of records held. */
    std::size_t insert();

    /**
     * Hand `deliver(record, forced)` every record at or below the
     * watermark (highest timestamp seen minus `window`) in order, then
     * force out the oldest while more than `cap` are held.
     */
    template <typename Deliver>
    void
    release(double window, std::size_t cap, Deliver &&deliver)
    {
        const common::SimTime watermark = highestSeen - window;
        while (!order.empty() && order.front().time <= watermark) {
            deliver(pool[order.front().slot], false);
            popFront();
        }
        while (order.size() > cap) {
            deliver(pool[order.front().slot], true);
            popFront();
        }
    }

    /** Hand `deliver(record)` every held record, in order. */
    template <typename Deliver>
    void
    flush(Deliver &&deliver)
    {
        while (!order.empty()) {
            deliver(pool[order.front().slot]);
            popFront();
        }
    }

    /** u64 count, (record, u64 seq) per held record in release order,
     *  then f64 highest timestamp seen and u64 next seq. */
    void saveState(common::BinWriter &out) const;

    /** Replace the contents with a saveState image. */
    bool restoreState(common::BinReader &in);

  private:
    struct Entry
    {
        common::SimTime time = 0.0; ///< the record's timestamp
        std::uint64_t seq = 0;      ///< arrival order, for stable ties
        std::uint32_t slot = 0;     ///< pool index
    };

    common::HeadQueue<Entry> order;
    std::vector<logging::LogRecord> pool;
    std::vector<std::uint32_t> freeSlots;
    common::SimTime highestSeen = 0.0;
    std::uint64_t nextSeq = 0;

    /** Drop the front entry and free its slot. */
    void popFront();
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_MONITOR_INGEST_GUARDS_HPP
