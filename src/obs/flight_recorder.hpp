/**
 * @file
 * seer-flight recorder: bounded forensic capture for postmortems
 * (DESIGN.md §12).
 *
 * The monitor's reports say *what* went wrong (diverged, timed out,
 * over latency budget) but the raw evidence — the log lines around the
 * failure — is gone by the time an operator reads them. The flight
 * recorder keeps a small per-node ring of recent raw lines in the
 * ingest path; when a report fires, the monitor freezes the rings plus
 * the group's state into a forensic bundle (a JSON object) that the
 * seer_postmortem CLI renders offline. Freezing copies the raw lines;
 * the bundle's JSON is rendered only when someone reads it.
 *
 * Null-sink contract (same as the rest of obs): the default config has
 * perNodeCapacity == 0, a monitor with that config constructs no
 * FlightRecorder at all, and reports stay bit-identical. Every bound —
 * lines per node, nodes tracked, bundles retained — is a hard cap, so
 * a long run cannot grow the recorder without limit.
 */

#ifndef CLOUDSEER_OBS_FLIGHT_RECORDER_HPP
#define CLOUDSEER_OBS_FLIGHT_RECORDER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cloudseer::obs {

/** Flight-recorder knobs. Defaults are off (the null sink). */
struct FlightRecorderConfig
{
    /** Raw lines retained per node; 0 disables the recorder. */
    std::size_t perNodeCapacity = 0;

    /** Distinct nodes tracked; lines from further nodes are counted
     *  as dropped rather than evicting an existing ring. */
    std::size_t maxNodes = 64;

    /** Forensic bundles retained (ring; oldest dropped). */
    std::size_t maxBundles = 256;

    /** True when the recorder captures anything. */
    bool enabled() const { return perNodeCapacity > 0; }
};

/** One captured raw line with its origin and message-clock stamp. */
struct ContextLine
{
    std::string node;
    double time = 0.0;
    std::string line;
};

/** Bounded per-node ring buffers plus the bundle store. */
class FlightRecorder
{
  public:
    explicit FlightRecorder(const FlightRecorderConfig &config);

    const FlightRecorderConfig &config() const { return cfg; }

    /**
     * Capture one raw line into its node's ring. This sits on the
     * per-message ingest path, so it takes views and copies into the
     * slot's existing buffer: once every slot has seen a line at
     * least as long as the current one, recording allocates nothing
     * (the node text lives once in the ring key, not per entry).
     */
    void record(std::string_view node, double time,
                std::string_view line);

    /**
     * Merged snapshot of every ring, time order (ties by node then
     * capture order) — the "context" section of a forensic bundle.
     */
    std::vector<ContextLine> context() const;

    /**
     * Freeze the rings into the next bundle slot and return the slot's
     * head, cleared, for the caller to render the bundle's prefix into:
     * the JSON object up to, not including, its "context" member and
     * closing brace. The context lines are copied raw; their JSON is
     * rendered on read. Past maxBundles the oldest slot is recycled
     * (and counted as dropped) with its buffers' capacity, so freezing
     * into a warm recorder allocates nothing.
     */
    std::string &freezeBundle();

    /** Retained bundles, oldest first, each rendered as one JSON
     *  object. */
    std::vector<std::string> bundles() const;

    /** Number of retained bundles — bundles().size() without
     *  rendering them. */
    std::size_t retainedBundles() const { return store.size(); }

    /** Bundles dropped past maxBundles. */
    std::uint64_t droppedBundles() const { return droppedBundleCount; }

    /** Lines offered to record() so far. */
    std::uint64_t linesRecorded() const { return recorded; }

    /** Lines rejected because the node cap was reached. */
    std::uint64_t droppedLines() const { return droppedLineCount; }

    /** Bundles as newline-separated JSON lines (postmortem input). */
    std::string bundleJsonLines() const;

  private:
    /** One retained line; the node is the owning ring's map key. */
    struct Slot
    {
        double time = 0.0;
        std::string line; ///< capacity reused across overwrites
    };

    /** Fixed-size ring: `slots` grows to capacity then wraps at
     *  `next`. */
    struct NodeRing
    {
        std::vector<Slot> slots;
        std::size_t next = 0;
        std::uint32_t node = 0; ///< index into `nodeNames`
    };

    /** A frozen line: `length` bytes at `offset` of its snapshot's
     *  text. */
    struct FrozenLine
    {
        double time = 0.0;
        std::uint32_t node = 0; ///< index into `nodeNames`
        std::uint32_t length = 0;
        std::size_t offset = 0;
    };

    /** Every ring's lines, copied oldest-first ring by ring in node
     *  order (the order the merge's ties fall back on). */
    struct Snapshot
    {
        std::vector<char> text; ///< exact-size reserve, unlike string
        std::vector<FrozenLine> lines;
    };

    /** One frozen bundle: the caller's rendered head plus the raw
     *  context it quotes. */
    struct Bundle
    {
        std::string head;
        Snapshot context;
    };

    /** Copy the rings into `out`, reusing its capacity. */
    void snapshotInto(Snapshot &out) const;

    /** `out` = indices into `snapshot.lines` in context() order. */
    void mergeOrder(const Snapshot &snapshot,
                    std::vector<std::uint32_t> &out) const;

    /** Append one bundle's JSON object to `out`. */
    void renderBundle(const Bundle &bundle, std::string &out) const;

    /** Visit the retained bundles oldest first. */
    template <typename Visit>
    void forEachBundle(Visit &&visit) const
    {
        for (std::size_t i = 0; i < store.size(); ++i)
            visit(store[(oldest + i) % store.size()]);
    }

    FlightRecorderConfig cfg;
    // std::less<> lets record() probe with a string_view; the node
    // string is materialised only when a new ring is created.
    std::map<std::string, NodeRing, std::less<>> rings;
    /** Ring keys in creation order: map keys never move or go away,
     *  so a frozen line names its node by index. */
    std::vector<const std::string *> nodeNames;
    /** Bundle slots; once full, a ring whose oldest entry is at
     *  `oldest`. */
    std::vector<Bundle> store;
    std::size_t oldest = 0;
    /** Largest snapshot text and head so far: a slot's buffer that
     *  has to grow grows to at least these. */
    std::size_t snapshotBytesHint = 0;
    std::size_t headBytesHint = 0;
    /** freezeBundle()'s head when maxBundles is 0. */
    std::string discardedHead;
    std::uint64_t recorded = 0;
    std::uint64_t droppedLineCount = 0;
    std::uint64_t droppedBundleCount = 0;
};

} // namespace cloudseer::obs

#endif // CLOUDSEER_OBS_FLIGHT_RECORDER_HPP
