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
 * seer_postmortem CLI renders offline.
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

/** A ContextLine as views into the recorder's rings; valid until the
 *  next record(). */
struct ContextLineView
{
    std::string_view node;
    double time = 0.0;
    std::string_view line;
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
     * context() as views, into caller-owned scratch (replacing its
     * contents): a bundle renders the lines straight from the rings
     * instead of copying each one. context() wraps this.
     */
    void contextInto(std::vector<ContextLineView> &out) const;

    /** Store one rendered bundle (JSON object, single line). */
    void addBundle(std::string bundle_json);

    /** Retained bundles, oldest first. */
    const std::vector<std::string> &bundles() const { return store; }

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
     *  `next`; `seq` preserves capture order across the wrap. */
    struct NodeRing
    {
        std::vector<Slot> slots;
        std::size_t next = 0;
        std::uint64_t seq = 0;
    };

    FlightRecorderConfig cfg;
    // std::less<> lets record() probe with a string_view; the node
    // string is materialised only when a new ring is created.
    std::map<std::string, NodeRing, std::less<>> rings;
    std::vector<std::string> store;
    std::uint64_t recorded = 0;
    std::uint64_t droppedLineCount = 0;
    std::uint64_t droppedBundleCount = 0;
};

} // namespace cloudseer::obs

#endif // CLOUDSEER_OBS_FLIGHT_RECORDER_HPP
