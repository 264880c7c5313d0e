/**
 * @file
 * seer-vault: crash-safe durability primitives (DESIGN.md §13).
 *
 * The vault persists a running monitor with the classic
 * append-ledger-plus-checkpoint idiom:
 *
 *  - `ledger.wal` — a write-ahead ledger of every input (raw line or
 *    record), appended *before* the input reaches the monitor. Frames
 *    are length-prefixed and CRC-checksummed; a torn tail from a
 *    crash mid-append is detected and discarded, never misread.
 *  - `checkpoint.ckpt` — a periodic full snapshot of monitor +
 *    interner state, written to a temp file and atomically renamed,
 *    so a crash mid-checkpoint leaves the previous checkpoint intact.
 *
 * Restore = load the newest checkpoint, then replay the ledger tail.
 * Both files are read through one FrameReader: the checkpoint once
 * into one buffer, parsed in place; the ledger in bounded chunks,
 * each frame replayed before the next is read, so restore memory is
 * bounded by the largest frame rather than by the tail's length.
 * Checkpoints are written from the section encoders' buffers
 * straight to the file (a continued CRC spans kind word and body).
 * Every ledger frame carries the absolute input sequence number and
 * the checkpoint records the sequence it covers, so replay skips
 * already-absorbed inputs — which makes the crash window between
 * checkpoint-rename and ledger-rotate safe (stale frames replay as
 * no-ops because their seq is covered).
 *
 * Ledger appends are group-committed: frames accumulate in a memory
 * buffer and reach the OS when the batch hits kGroupCommitBytes, on
 * rotation, and at ledger destruction (so an orderly shutdown loses
 * nothing). Nothing is fsync'd: the target failure model is process
 * death (kill -9, OOM, deploy restarts), not power loss. A hard kill
 * can lose the unflushed batch plus whatever the kernel had not yet
 * written — the frame CRCs turn that tail into a clean truncation,
 * and a collector that acks on checkpoint (or retransmits past the
 * restored monitor's last replayed seq, as bench_soak does) closes
 * the gap.
 */

#ifndef CLOUDSEER_VAULT_VAULT_HPP
#define CLOUDSEER_VAULT_VAULT_HPP

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "logging/log_record.hpp"

namespace cloudseer::vault {

/** Durability knobs. The default (empty directory) is the null sink. */
struct VaultConfig
{
    /**
     * Directory holding `checkpoint.ckpt` and `ledger.wal` (created
     * if missing). Empty — the default — disables the vault entirely:
     * no object is constructed, no file is touched, and the monitor
     * behaves bit-identically to an unvaulted one.
     */
    std::string directory;

    /**
     * Take a checkpoint automatically every this many inputs fed
     * through the vaulted monitor. 0 = only explicit checkpoint()
     * calls. Each checkpoint rotates the ledger, so this knob trades
     * checkpoint write cost against replay length after a crash.
     */
    std::uint64_t checkpointEveryRecords = 0;

    /** True when a directory is configured. */
    bool enabled() const { return !directory.empty(); }
};

/** Durability counters (surfaced by bench_soak and seer_vault). */
struct VaultStats
{
    std::uint64_t walAppends = 0;      ///< frames appended to the ledger
    std::uint64_t checkpointsTaken = 0;
    std::uint64_t checkpointsFailed = 0; ///< write or rename failed
    std::uint64_t lastCheckpointBytes = 0; ///< size of the newest image
    std::uint64_t walBytes = 0;        ///< current ledger size, bytes
};

// --- file-format constants (shared with seer_vault and tests) ---------

/** Checkpoint file magic (8 bytes, no terminator on disk). */
inline constexpr char kCheckpointMagic[9] = "CSEERVLT";

/** Ledger file magic. */
inline constexpr char kLedgerMagic[9] = "CSEERWAL";

/** On-disk format version for both files. 2: health samples no
 *  longer carry the deleted sharded engine's lanes and counters. 3:
 *  health samples are saved in kHealthFields order (the HEALTH JSON
 *  order), which moves recordsDelivered, activeGroups and
 *  activeIdentifierSets. An older checkpoint would restore with fields
 *  misplaced, so it is refused instead. */
inline constexpr std::uint32_t kVaultVersion = 3;

/** Ledger group-commit threshold: pending frame bytes that trigger a
 *  write to the OS. Sized so the hot path is a memcpy per input and
 *  the write syscall amortises over hundreds of frames (perfbench's
 *  `vault.append_ns` measures what is left). */
inline constexpr std::size_t kGroupCommitBytes = 32 * 1024;

/** Checkpoint section kinds (first u32 of each checkpoint frame). */
enum class CheckpointSection : std::uint32_t
{
    Meta = 1,     ///< fingerprint, covered ledger seq, monitor clock
    Interner = 2, ///< process-wide identifier interner image
    Monitor = 3,  ///< full WorkflowMonitor state
    End = 4,      ///< terminator (an image without it is incomplete)
};

/** Ledger entry kinds (first u8 of each ledger frame payload). */
enum class LedgerEntry : std::uint8_t
{
    RawLine = 1, ///< feedLine input, verbatim wire line
    Record = 2,  ///< feed input, full binary LogRecord
};

/** Decoded checkpoint Meta section. */
struct CheckpointMeta
{
    std::uint64_t modelFingerprint = 0;
    std::uint64_t coveredSeq = 0; ///< ledger inputs <= this are absorbed
    double monitorTime = 0.0;     ///< message clock at checkpoint
};

// --- frame codec -------------------------------------------------------

/** Write a fresh framed file: magic + version header only. */
bool writeFileHeader(std::ofstream &out, const char *magic);

/**
 * Write one `[u32 len][u32 crc][payload]` frame whose payload is
 * `head` followed by `body`. The CRC is continued from one span to
 * the next, so the payload is never assembled in memory: a checkpoint
 * section goes to the file straight from its encoder's buffer.
 */
void writeFrame(std::ofstream &out, std::string_view head,
                std::string_view body = {});

/**
 * Sequential reader over a framed vault file: checks each frame's
 * `[u32 len][u32 crc]` and yields its payload as a view.
 *
 * The file is read in chunks into one reused buffer, which grows only
 * when a frame is longer than a chunk — so scanning a ledger of any
 * length holds at most max(chunk, largest frame) bytes. A bad header
 * yields headerOk()=false and no frames. A frame shorter than its own
 * header, a length pointing past EOF, or a checksum mismatch marks
 * the torn tail a crash mid-append leaves: the scan stops there with
 * torn()=true, and bytes after it are never interpreted.
 */
class FrameReader
{
  public:
    /** Chunk size that reads the whole file on the first fill; the
     *  buffer then never moves, so every payload view stays valid for
     *  the reader's lifetime. */
    static constexpr std::size_t kWholeFile = static_cast<std::size_t>(-1);

    FrameReader(const std::string &path, const char *magic,
                std::size_t chunk_bytes = kGroupCommitBytes);

    /** Magic + version matched. */
    bool headerOk() const { return header; }

    /**
     * Advance to the next intact frame. False at the end of the
     * intact prefix (clean EOF or torn tail). `payload` views the
     * reader's buffer and is valid until the next call.
     */
    bool next(std::string_view &payload);

    /**
     * The frame next() just returned passed its CRC but does not
     * decode — a writer bug or version skew, not a crash. Treat it as
     * the start of the torn tail so nothing after it is used.
     */
    void rejectLast();

    /** The scan stopped before EOF. */
    bool torn() const { return tornTail; }

    /** Bytes from the first unaccepted frame to EOF. */
    std::size_t tornBytes() const { return tornCount; }

  private:
    std::ifstream in;
    std::string buffer;
    std::size_t chunk;
    std::size_t head = 0; ///< buffer offset of frameStart
    std::size_t tail = 0; ///< end of the bytes read so far
    std::uint64_t fileBytes = 0;
    std::uint64_t readOffset = 0; ///< file offset of buffer[tail]
    std::uint64_t frameStart = 0; ///< file offset of the next frame
    std::uint64_t lastStart = 0;  ///< file offset of the last frame
    bool header = false;
    bool done = false;
    bool tornTail = false;
    std::size_t tornCount = 0;

    /** Make at least `n` bytes from frameStart available in the
     *  buffer; false when the file ends first. */
    bool fill(std::size_t n);

    /** End the scan at `at`: anything from there to EOF is torn. */
    void stopAt(std::uint64_t at);
};

// --- the write-ahead ledger -------------------------------------------

/** Append-only input ledger with sequence-tagged frames. */
class WriteAheadLedger
{
  public:
    explicit WriteAheadLedger(std::string path_) : path(std::move(path_))
    {
    }

    /** Flushes the pending group-commit batch. */
    ~WriteAheadLedger() { flush(); }

    /**
     * Open for appending, writing a fresh header when the file is
     * missing or empty. An existing file is appended to as-is; call
     * rotate() first when its tail may be torn (post-recovery).
     */
    bool open();

    /** Append one raw wire line under the given sequence. */
    void appendLine(std::uint64_t seq, std::string_view line);

    /** Append one record under the given sequence. */
    void appendRecord(std::uint64_t seq,
                      const logging::LogRecord &record);

    /** Write the pending batch to the OS now. */
    void flush();

    /**
     * Atomically replace the ledger with an empty one (fresh header),
     * discarding the pending batch — rotation follows a checkpoint,
     * and every pending frame's seq is covered by it. Replay length
     * thus stays proportional to the checkpoint interval.
     */
    bool rotate();

    /** Ledger bytes: on disk plus the pending batch. */
    std::uint64_t bytes() const;

    const std::string &filePath() const { return path; }

  private:
    std::string path;
    std::ofstream out;
    std::string pending;      ///< framed appends awaiting group commit
    common::BinWriter scratch; ///< record payload encoder, reused

    /** Frame scratch's bytes into pending; group-commit if due. */
    void enqueue();

    /** Patch the 8-byte [len][crc] placeholder at `start` now that
     *  the frame's payload occupies pending[start+8..); group-commit
     *  if due. */
    void sealFrame(std::size_t start);
};

/** One ledger entry decoded in place (recovery's replay). */
struct LedgerInputView
{
    LedgerEntry kind = LedgerEntry::Record;
    std::uint64_t seq = 0;
    std::string_view line;     ///< RawLine payload, views the reader
    logging::LogRecord record; ///< Record payload, reassigned in place
};

/**
 * Decode the reader's next intact ledger frame into `input`. False at
 * the end of the intact prefix; a frame that passes its CRC but does
 * not decode ends it too (FrameReader::rejectLast), so replay never
 * feeds garbage to the monitor. Reusing one `input` across calls
 * keeps the record's strings' capacity.
 */
bool nextLedgerInput(FrameReader &frames, LedgerInputView &input);

/** One decoded ledger entry, owning its payload. */
struct LedgerInput
{
    LedgerEntry kind = LedgerEntry::Record;
    std::uint64_t seq = 0;
    std::string line;          ///< RawLine payload
    logging::LogRecord record; ///< Record payload
};

/** Result of decoding a ledger file. */
struct LedgerScan
{
    bool headerOk = false;
    bool torn = false;
    std::vector<LedgerInput> inputs; ///< intact entries, in seq order
};

/** Decode every intact entry of a ledger file into memory (operator
 *  tooling; recovery streams with nextLedgerInput instead). */
LedgerScan readLedger(const std::string &path);

// --- checkpoint files --------------------------------------------------

/**
 * Write a checkpoint image atomically: sections are framed into
 * `path.tmp`, terminated by an End section, then renamed over `path`.
 * Returns the image size in bytes (0 on failure, after removing the
 * temp file if this call created it). `sections` pairs each
 * CheckpointSection with a view of its serialised body (Meta first by
 * convention; readers locate sections by kind, not position). Bodies
 * are written straight from the caller's buffers.
 */
std::uint64_t writeCheckpoint(
    const std::string &path,
    std::initializer_list<std::pair<CheckpointSection, std::string_view>>
        sections);

/**
 * A checkpoint file read once into one buffer and parsed in place:
 * section bodies are views of that buffer, valid while the image
 * lives. CRC-checked and torn-tail tolerant; parsing stops at the End
 * section.
 */
class CheckpointImage
{
  public:
    explicit CheckpointImage(const std::string &path);

    // Section views point into `frames`' buffer.
    CheckpointImage(const CheckpointImage &) = delete;
    CheckpointImage &operator=(const CheckpointImage &) = delete;

    bool headerOk() const { return frames.headerOk(); }

    /** End section present (the image is whole). */
    bool complete() const { return hasEnd; }

    /** The decoded Meta section; null when absent or malformed. */
    const CheckpointMeta *meta() const
    {
        return hasMeta ? &metaFields : nullptr;
    }

    /** Sections before End, in file order. */
    const std::vector<std::pair<CheckpointSection, std::string_view>> &
    sections() const
    {
        return parsed;
    }

    /** Body of the last section of `kind`; null when absent. */
    const std::string_view *section(CheckpointSection kind) const;

  private:
    FrameReader frames;
    std::vector<std::pair<CheckpointSection, std::string_view>> parsed;
    CheckpointMeta metaFields;
    bool hasMeta = false;
    bool hasEnd = false;
};

/** Decoded checkpoint image, owning copies of its sections. */
struct CheckpointScan
{
    bool headerOk = false;
    bool complete = false; ///< End section present (image is whole)
    bool hasMeta = false;
    CheckpointMeta meta;
    std::vector<std::pair<CheckpointSection, std::string>> sections;
};

/** Decode a checkpoint file into owned copies (operator tooling;
 *  recovery parses a CheckpointImage in place instead). */
CheckpointScan readCheckpoint(const std::string &path);

/** Serialise a Meta section payload. */
std::string encodeMeta(const CheckpointMeta &meta);

/** Decode a Meta section payload. */
bool decodeMeta(std::string_view payload, CheckpointMeta &meta);

/** `directory`/checkpoint.ckpt */
std::string checkpointPath(const std::string &directory);

/** `directory`/ledger.wal */
std::string ledgerPath(const std::string &directory);

} // namespace cloudseer::vault

#endif // CLOUDSEER_VAULT_VAULT_HPP
