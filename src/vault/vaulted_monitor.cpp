#include "vault/vaulted_monitor.hpp"

#include <chrono>
#include <filesystem>

#include "logging/identifier_interner.hpp"

namespace cloudseer::vault {

namespace {

/** Microseconds elapsed since `from` (WAL append timing). */
double
microsSince(std::chrono::steady_clock::time_point from)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - from)
        .count();
}

} // namespace

VaultedMonitor::VaultedMonitor(
    VaultConfig vault_config,
    const core::MonitorConfig &monitor_config,
    std::shared_ptr<logging::TemplateCatalog> catalog,
    std::vector<core::TaskAutomaton> automata)
    : config(std::move(vault_config)), monitorConfig(monitor_config),
      catalogPtr(std::move(catalog)), specs(std::move(automata))
{
    resetMonitor();
    if (!config.enabled()) {
        return;
    }
    std::error_code ec;
    std::filesystem::create_directories(config.directory, ec);
    ledger = std::make_unique<WriteAheadLedger>(
        ledgerPath(config.directory));
    recover();
    // The post-recovery checkpoint absorbs whatever was replayed and
    // rotates away the (possibly torn) old ledger, so the directory
    // is always in the clean two-file state afterwards. The crash
    // window between the two renames inside checkpoint() is safe:
    // stale ledger frames carry seqs the new image already covers.
    if (!checkpoint()) {
        // Checkpointing failed (e.g. unwritable directory): keep the
        // monitor running with whatever ledger can still be appended
        // to rather than refusing to start.
        ledger->open();
    }
}

void
VaultedMonitor::recover()
{
    const std::string ckpt_path = checkpointPath(config.directory);
    std::error_code ec;
    bool have_checkpoint = std::filesystem::exists(ckpt_path, ec);

    if (have_checkpoint) {
        recoverInfo.attempted = true;
        // The image lives only in this block: its buffer is freed
        // before the ledger tail replays.
        CheckpointImage image(ckpt_path);
        const CheckpointMeta *meta = image.meta();
        if (!image.headerOk() || !image.complete() || meta == nullptr) {
            recoverInfo.error = "checkpoint unreadable or incomplete";
        } else if (meta->modelFingerprint !=
                   monitorPtr->modelFingerprint()) {
            recoverInfo.error =
                "checkpoint model fingerprint mismatch";
        } else {
            const std::string_view *interner_body =
                image.section(CheckpointSection::Interner);
            const std::string_view *monitor_body =
                image.section(CheckpointSection::Monitor);
            if (interner_body == nullptr || monitor_body == nullptr) {
                recoverInfo.error = "checkpoint missing a section";
            } else {
                common::BinReader interner_in(*interner_body);
                common::BinReader monitor_in(*monitor_body);
                if (!logging::IdentifierInterner::process()
                         .restoreState(interner_in)) {
                    recoverInfo.error =
                        "interner restore refused (table diverged)";
                } else if (!monitorPtr->restoreState(monitor_in)) {
                    recoverInfo.error = "monitor restore refused";
                    // The monitor may be half-overwritten; rebuild
                    // it from the construction inputs.
                    resetMonitor();
                } else {
                    recoverInfo.recovered = true;
                    recoverInfo.checkpointSeq = meta->coveredSeq;
                    nextSeq = meta->coveredSeq;
                }
            }
        }
        if (!recoverInfo.recovered) {
            // The on-disk state belongs to an incompatible history
            // (wrong model, diverged interner, refused image). Its
            // ledger must not be replayed into this monitor — the
            // frames were recorded against the state that was just
            // refused. Set both files aside instead of overwriting
            // them, so an operator can still autopsy the refused
            // vault with seer_vault.
            std::error_code rename_ec;
            std::filesystem::rename(ckpt_path,
                                    ckpt_path + ".refused",
                                    rename_ec);
            std::filesystem::rename(ledger->filePath(),
                                    ledger->filePath() + ".refused",
                                    rename_ec);
            return;
        }
    }
    recoverInfo.lastReplayedSeq = recoverInfo.checkpointSeq;

    // Replay the ledger tail, one frame at a time: each is read,
    // checked and fed before the next is read, so replay holds one
    // frame, not the tail. Frames at or below the checkpoint's covered
    // seq are already absorbed by the image (they linger only after a
    // crash between checkpoint-rename and ledger-rotate) and are
    // skipped.
    FrameReader tail(ledger->filePath(), kLedgerMagic);
    LedgerInputView input;
    while (nextLedgerInput(tail, input)) {
        if (input.seq <= recoverInfo.checkpointSeq) {
            continue;
        }
        recoverInfo.attempted = true;
        std::vector<core::MonitorReport> reports =
            input.kind == LedgerEntry::RawLine
                ? monitorPtr->feedLine(input.line)
                : monitorPtr->feed(input.record);
        recoverInfo.replayReports.insert(
            recoverInfo.replayReports.end(),
            std::make_move_iterator(reports.begin()),
            std::make_move_iterator(reports.end()));
        ++recoverInfo.replayedInputs;
        recoverInfo.lastReplayedSeq = input.seq;
        nextSeq = input.seq;
        recoverInfo.recovered = true;
    }
    recoverInfo.ledgerTorn = tail.torn();
}

void
VaultedMonitor::resetMonitor()
{
    monitorPtr = std::make_unique<core::WorkflowMonitor>(
        monitorConfig, catalogPtr, specs);
    // seer-pulse: request the WAL append-latency histogram up front so
    // every vaulted instrumented monitor exposes seer_wal_append_us
    // and checkpoint save/restore shapes agree across processes. The
    // registry hands back a stable pointer; restores refill it in
    // place. Null (and appends untimed) when metrics are off.
    walLatency = monitorPtr->observability() == nullptr
                     ? nullptr
                     : monitorPtr->observability()->walAppendLatency();
    walTick = 0;
}

std::vector<core::MonitorReport>
VaultedMonitor::feed(const logging::LogRecord &record)
{
    if (!config.enabled()) {
        return monitorPtr->feed(record);
    }
    const bool timed = walLatency != nullptr && walTick++ % 8 == 0;
    std::chrono::steady_clock::time_point before;
    if (timed)
        before = std::chrono::steady_clock::now();
    ledger->appendRecord(++nextSeq, record);
    if (timed)
        walLatency->record(microsSince(before));
    ++tallies.walAppends;
    ++inputsSinceCheckpoint;
    std::vector<core::MonitorReport> reports =
        monitorPtr->feed(record);
    maybeCheckpoint();
    return reports;
}

std::vector<core::MonitorReport>
VaultedMonitor::feedLine(std::string_view line)
{
    if (!config.enabled()) {
        return monitorPtr->feedLine(line);
    }
    const bool timed = walLatency != nullptr && walTick++ % 8 == 0;
    std::chrono::steady_clock::time_point before;
    if (timed)
        before = std::chrono::steady_clock::now();
    ledger->appendLine(++nextSeq, line);
    if (timed)
        walLatency->record(microsSince(before));
    ++tallies.walAppends;
    ++inputsSinceCheckpoint;
    std::vector<core::MonitorReport> reports =
        monitorPtr->feedLine(line);
    maybeCheckpoint();
    return reports;
}

std::vector<core::MonitorReport>
VaultedMonitor::finish()
{
    std::vector<core::MonitorReport> reports = monitorPtr->finish();
    if (config.enabled()) {
        checkpoint();
    }
    return reports;
}

bool
VaultedMonitor::checkpoint()
{
    if (!config.enabled()) {
        return false;
    }
    CheckpointMeta meta;
    meta.modelFingerprint = monitorPtr->modelFingerprint();
    meta.coveredSeq = nextSeq;
    meta.monitorTime = monitorPtr->lastTime();

    // The encoders are members: cleared here, never freed, so each
    // checkpoint reuses the capacity the last one grew, and
    // writeCheckpoint frames their bytes straight into the file.
    internerImage.clear();
    logging::IdentifierInterner::process().snapshotState(internerImage);
    monitorImage.clear();
    monitorPtr->saveState(monitorImage);
    const std::string meta_bytes = encodeMeta(meta);

    std::uint64_t bytes = writeCheckpoint(
        checkpointPath(config.directory),
        {{CheckpointSection::Meta, meta_bytes},
         {CheckpointSection::Interner, internerImage.bytes()},
         {CheckpointSection::Monitor, monitorImage.bytes()}});
    // A failed attempt also restarts the interval: retrying on every
    // input would serialise the whole state per input while the
    // directory stays unwritable.
    inputsSinceCheckpoint = 0;
    if (bytes == 0) {
        ++tallies.checkpointsFailed;
        return false;
    }
    ++tallies.checkpointsTaken;
    tallies.lastCheckpointBytes = bytes;
    return ledger->rotate();
}

void
VaultedMonitor::maybeCheckpoint()
{
    if (config.checkpointEveryRecords > 0 &&
        inputsSinceCheckpoint >= config.checkpointEveryRecords) {
        checkpoint();
    }
}

VaultStats
VaultedMonitor::stats() const
{
    VaultStats out = tallies;
    out.walBytes = ledger == nullptr ? 0 : ledger->bytes();
    return out;
}

} // namespace cloudseer::vault
