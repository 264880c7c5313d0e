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
#include <string>
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
    std::uint64_t lastCheckpointBytes = 0; ///< size of the newest image
    std::uint64_t walBytes = 0;        ///< current ledger size, bytes
};

// --- file-format constants (shared with seer_vault and tests) ---------

/** Checkpoint file magic (8 bytes, no terminator on disk). */
inline constexpr char kCheckpointMagic[9] = "CSEERVLT";

/** Ledger file magic. */
inline constexpr char kLedgerMagic[9] = "CSEERWAL";

/** On-disk format version for both files. 2: health samples no
 *  longer carry the deleted sharded engine's lanes and counters, so a
 *  version-1 checkpoint would misparse and is refused instead. */
inline constexpr std::uint32_t kVaultVersion = 2;

/** Ledger group-commit threshold: pending frame bytes that trigger a
 *  write to the OS. Sized so the hot path is a memcpy per input and
 *  the write syscall amortises over hundreds of frames, keeping the
 *  vault under the ingest-overhead bar bench_throughput enforces. */
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

/** Append one `[u32 len][u32 crc][payload]` frame and flush. */
void appendFrame(std::ofstream &out, const std::string &payload);

/** Result of scanning a framed file. */
struct FrameScan
{
    bool headerOk = false;  ///< magic + version matched
    bool torn = false;      ///< trailing bytes failed length/CRC checks
    std::size_t tornBytes = 0; ///< bytes discarded at the tail
    std::vector<std::string> frames; ///< intact payloads, in order
};

/**
 * Read every intact frame of a vault file. A bad header yields
 * headerOk=false and no frames; a torn tail (truncated frame or CRC
 * mismatch — the crash signature) stops the scan cleanly with
 * torn=true. Bytes after a torn frame are never interpreted.
 */
FrameScan scanFrames(const std::string &path, const char *magic);

/** Write a fresh framed file: magic + version header only. */
bool writeFileHeader(std::ofstream &out, const char *magic);

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
    void appendLine(std::uint64_t seq, const std::string &line);

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

/** One decoded ledger entry. */
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

/** Decode every intact entry of a ledger file. */
LedgerScan readLedger(const std::string &path);

// --- checkpoint files --------------------------------------------------

/**
 * Write a checkpoint image atomically: sections are framed into
 * `path.tmp`, terminated by an End section, then renamed over `path`.
 * Returns the image size in bytes (0 on failure). `sections` pairs
 * each CheckpointSection with its serialised payload (Meta first by
 * convention; readers locate sections by kind, not position).
 */
std::uint64_t writeCheckpoint(
    const std::string &path,
    const std::vector<std::pair<CheckpointSection, std::string>>
        &sections);

/** Decoded checkpoint image. */
struct CheckpointScan
{
    bool headerOk = false;
    bool complete = false; ///< End section present (image is whole)
    bool hasMeta = false;
    CheckpointMeta meta;
    std::vector<std::pair<CheckpointSection, std::string>> sections;
};

/** Decode a checkpoint file (CRC-checked, torn-tail tolerant). */
CheckpointScan readCheckpoint(const std::string &path);

/** Serialise a Meta section payload. */
std::string encodeMeta(const CheckpointMeta &meta);

/** Decode a Meta section payload. */
bool decodeMeta(const std::string &payload, CheckpointMeta &meta);

/** `directory`/checkpoint.ckpt */
std::string checkpointPath(const std::string &directory);

/** `directory`/ledger.wal */
std::string ledgerPath(const std::string &directory);

} // namespace cloudseer::vault

#endif // CLOUDSEER_VAULT_VAULT_HPP
