#include "vault/vault.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "logging/record_binio.hpp"
#include "obs/profiler.hpp"

namespace cloudseer::vault {

namespace {

/** Little-endian u32 into `out[0..4)`, matching BinWriter's integer
 *  encoding. */
void
putU32(char *out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
}

std::uint32_t
decodeU32(const char *bytes)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes[i]))
                 << (8 * i);
    }
    return value;
}

/** Magic (8 bytes) + version (u32). */
constexpr std::size_t kHeaderBytes = 12;

/** Frame header: [u32 len][u32 crc]. */
constexpr std::size_t kFrameHeaderBytes = 8;

} // namespace

bool
writeFileHeader(std::ofstream &out, const char *magic)
{
    char version[4];
    putU32(version, kVaultVersion);
    out.write(magic, 8);
    out.write(version, 4);
    out.flush();
    return out.good();
}

void
writeFrame(std::ofstream &out, std::string_view head, std::string_view body)
{
    char header[kFrameHeaderBytes];
    putU32(header, static_cast<std::uint32_t>(head.size() + body.size()));
    putU32(header + 4, common::crc32(body, common::crc32(head)));
    out.write(header, kFrameHeaderBytes);
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

// --- FrameReader -------------------------------------------------------

FrameReader::FrameReader(const std::string &path, const char *magic,
                         std::size_t chunk_bytes)
    : chunk(chunk_bytes)
{
    // Unbuffered: every read is at least a chunk and lands straight in
    // `buffer`, so the stream needs no buffer of its own.
    in.rdbuf()->pubsetbuf(nullptr, 0);
    in.open(path, std::ios::binary);
    if (!in.is_open())
        return;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    fileBytes = size < 0 ? 0 : static_cast<std::uint64_t>(size);
    if (fileBytes < kHeaderBytes || !fill(kHeaderBytes) ||
        std::string_view(buffer.data(), 8) != std::string_view(magic, 8) ||
        decodeU32(buffer.data() + 8) != kVaultVersion) {
        done = true;
        return;
    }
    header = true;
    head = kHeaderBytes;
    frameStart = kHeaderBytes;
}

bool
FrameReader::fill(std::size_t n)
{
    if (tail - head >= n)
        return true;
    // Slide the unconsumed bytes (a partial frame) to the front, then
    // read up to a full chunk — or the whole frame, if longer.
    if (head > 0) {
        std::memmove(buffer.data(), buffer.data() + head, tail - head);
        tail -= head;
        head = 0;
    }
    const std::uint64_t unread = fileBytes - readOffset;
    const std::uint64_t want =
        std::min<std::uint64_t>(std::max(n, chunk) - tail, unread);
    const std::size_t needed = tail + static_cast<std::size_t>(want);
    if (buffer.size() < needed) {
        // Grow to exactly what this frame needs — a string's own
        // resize would double — keeping the unconsumed prefix.
        std::string grown(needed, '\0');
        std::memcpy(grown.data(), buffer.data(), tail);
        buffer.swap(grown);
    }
    in.read(buffer.data() + tail, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in.gcount());
    tail += got;
    readOffset += got;
    if (got < want)
        fileBytes = readOffset; // the file ended early (truncated)
    return tail - head >= n;
}

bool
FrameReader::next(std::string_view &payload)
{
    if (done)
        return false;
    const std::uint64_t left = fileBytes - frameStart;
    if (left == 0) {
        done = true;
        return false;
    }
    // A frame shorter than its own header, a length pointing past
    // EOF, or a checksum mismatch all mark the torn tail left by a
    // crash mid-append; everything before it is intact.
    if (left < kFrameHeaderBytes || !fill(kFrameHeaderBytes)) {
        stopAt(frameStart);
        return false;
    }
    const std::size_t len = decodeU32(buffer.data() + head);
    const std::uint32_t crc = decodeU32(buffer.data() + head + 4);
    if (left - kFrameHeaderBytes < len ||
        !fill(kFrameHeaderBytes + len)) {
        stopAt(frameStart);
        return false;
    }
    payload = std::string_view(buffer.data() + head + kFrameHeaderBytes,
                               len);
    if (common::crc32(payload) != crc) {
        stopAt(frameStart);
        return false;
    }
    lastStart = frameStart;
    frameStart += kFrameHeaderBytes + len;
    head += kFrameHeaderBytes + len;
    return true;
}

void
FrameReader::rejectLast()
{
    stopAt(lastStart);
}

void
FrameReader::stopAt(std::uint64_t at)
{
    done = true;
    if (at < fileBytes) {
        tornTail = true;
        tornCount = static_cast<std::size_t>(fileBytes - at);
    }
}

// --- WriteAheadLedger --------------------------------------------------

bool
WriteAheadLedger::open()
{
    std::error_code ec;
    bool fresh = !std::filesystem::exists(path, ec) ||
                 std::filesystem::file_size(path, ec) == 0;
    out.open(path, std::ios::binary | std::ios::app);
    if (!out.is_open()) {
        return false;
    }
    if (fresh) {
        return writeFileHeader(out, kLedgerMagic);
    }
    return true;
}

void
WriteAheadLedger::enqueue()
{
    // Frame directly into the pending batch — no temporaries, so the
    // per-input cost is two small memcpys and a CRC pass. scratch and
    // pending both keep their capacity across appends.
    const std::string &payload = scratch.bytes();
    char header[kFrameHeaderBytes];
    putU32(header, static_cast<std::uint32_t>(payload.size()));
    putU32(header + 4, common::crc32(payload));
    pending.append(header, kFrameHeaderBytes);
    pending += payload;
    if (pending.size() >= kGroupCommitBytes)
        flush();
}

void
WriteAheadLedger::flush()
{
    if (pending.empty() || !out.is_open())
        return;
    out.write(pending.data(),
              static_cast<std::streamsize>(pending.size()));
    out.flush();
    pending.clear();
}

void
WriteAheadLedger::sealFrame(std::size_t start)
{
    std::string_view payload(pending.data() + start + 8,
                             pending.size() - start - 8);
    putU32(pending.data() + start,
           static_cast<std::uint32_t>(payload.size()));
    putU32(pending.data() + start + 4, common::crc32(payload));
    if (pending.size() >= kGroupCommitBytes)
        flush();
}

void
WriteAheadLedger::appendLine(std::uint64_t seq, std::string_view line)
{
    obs::StageScope profScope(obs::ProfStage::WalAppend);
    // Raw lines are the ingest hot path: frame straight into the
    // pending batch — header placeholder first, patched by sealFrame
    // once the payload is in place — so each append is one CRC pass
    // and a single payload copy, no intermediate encode buffer.
    std::size_t start = pending.size();
    pending.append(8, '\0'); // [len][crc], patched below
    char enc[17];
    enc[0] = static_cast<char>(LedgerEntry::RawLine);
    std::uint64_t size = line.size();
    for (int i = 0; i < 8; ++i) {
        enc[1 + i] = static_cast<char>((seq >> (8 * i)) & 0xffu);
        enc[9 + i] = static_cast<char>((size >> (8 * i)) & 0xffu);
    }
    pending.append(enc, 17);
    pending += line;
    sealFrame(start);
}

void
WriteAheadLedger::appendRecord(std::uint64_t seq,
                               const logging::LogRecord &record)
{
    obs::StageScope profScope(obs::ProfStage::WalAppend);
    scratch.clear();
    scratch.writeU8(static_cast<std::uint8_t>(LedgerEntry::Record));
    scratch.writeU64(seq);
    logging::writeLogRecord(scratch, record);
    enqueue();
}

bool
WriteAheadLedger::rotate()
{
    // Pending frames predate the checkpoint that triggered this
    // rotation; their inputs are absorbed in the image.
    pending.clear();
    const std::string tmp = path + ".tmp";
    {
        std::ofstream fresh(tmp,
                            std::ios::binary | std::ios::trunc);
        if (!fresh.is_open() ||
            !writeFileHeader(fresh, kLedgerMagic)) {
            return false;
        }
    }
    if (out.is_open()) {
        out.close();
    }
    // rename() is atomic on POSIX: a crash here leaves either the
    // old ledger (stale frames are seq-gated at replay) or the new
    // empty one, never a hybrid.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        return false;
    }
    out.open(path, std::ios::binary | std::ios::app);
    return out.is_open();
}

std::uint64_t
WriteAheadLedger::bytes() const
{
    std::error_code ec;
    auto size = std::filesystem::file_size(path, ec);
    return (ec ? 0 : static_cast<std::uint64_t>(size)) +
           pending.size();
}

bool
nextLedgerInput(FrameReader &frames, LedgerInputView &input)
{
    std::string_view payload;
    if (!frames.next(payload))
        return false;
    common::BinReader in(payload);
    std::uint8_t kind = in.readU8();
    input.seq = in.readU64();
    if (kind == static_cast<std::uint8_t>(LedgerEntry::RawLine)) {
        input.kind = LedgerEntry::RawLine;
        input.line = in.readStringView();
    } else if (kind == static_cast<std::uint8_t>(LedgerEntry::Record)) {
        input.kind = LedgerEntry::Record;
        logging::readLogRecord(in, input.record);
    } else {
        in.fail();
    }
    if (!in.ok()) {
        frames.rejectLast();
        return false;
    }
    return true;
}

LedgerScan
readLedger(const std::string &path)
{
    LedgerScan scan;
    FrameReader frames(path, kLedgerMagic);
    LedgerInputView view;
    while (nextLedgerInput(frames, view)) {
        LedgerInput &input = scan.inputs.emplace_back();
        input.kind = view.kind;
        input.seq = view.seq;
        if (view.kind == LedgerEntry::RawLine)
            input.line = view.line;
        else
            input.record = view.record;
    }
    scan.headerOk = frames.headerOk();
    scan.torn = frames.torn();
    return scan;
}

// --- checkpoint files --------------------------------------------------

std::uint64_t
writeCheckpoint(
    const std::string &path,
    std::initializer_list<std::pair<CheckpointSection, std::string_view>>
        sections)
{
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
        return 0;
    }
    // From here on the temp file is ours: a failure removes it, so no
    // partial image outlives the attempt.
    auto discard = [&tmp] {
        std::error_code ignored;
        std::filesystem::remove(tmp, ignored);
        return std::uint64_t{0};
    };
    if (!writeFileHeader(out, kCheckpointMagic)) {
        return discard();
    }
    char kind_word[4];
    for (const auto &[kind, body] : sections) {
        putU32(kind_word, static_cast<std::uint32_t>(kind));
        writeFrame(out, std::string_view(kind_word, 4), body);
    }
    putU32(kind_word, static_cast<std::uint32_t>(CheckpointSection::End));
    writeFrame(out, std::string_view(kind_word, 4));
    out.close();
    std::error_code ec;
    auto size = std::filesystem::file_size(tmp, ec);
    if (out.fail() || ec || std::rename(tmp.c_str(), path.c_str()) != 0) {
        return discard();
    }
    return static_cast<std::uint64_t>(size);
}

CheckpointImage::CheckpointImage(const std::string &path)
    : frames(path, kCheckpointMagic, FrameReader::kWholeFile)
{
    std::string_view payload;
    while (frames.next(payload)) {
        if (payload.size() < 4) {
            break;
        }
        auto kind = static_cast<CheckpointSection>(
            decodeU32(payload.data()));
        if (kind == CheckpointSection::End) {
            hasEnd = true;
            break;
        }
        std::string_view body = payload.substr(4);
        if (kind == CheckpointSection::Meta) {
            hasMeta = decodeMeta(body, metaFields);
        }
        parsed.emplace_back(kind, body);
    }
}

const std::string_view *
CheckpointImage::section(CheckpointSection kind) const
{
    const std::string_view *found = nullptr;
    for (const auto &[k, body] : parsed) {
        if (k == kind) {
            found = &body;
        }
    }
    return found;
}

CheckpointScan
readCheckpoint(const std::string &path)
{
    CheckpointImage image(path);
    CheckpointScan scan;
    scan.headerOk = image.headerOk();
    scan.complete = image.complete();
    if (image.meta() != nullptr) {
        scan.hasMeta = true;
        scan.meta = *image.meta();
    }
    for (const auto &[kind, body] : image.sections()) {
        scan.sections.emplace_back(kind, std::string(body));
    }
    return scan;
}

std::string
encodeMeta(const CheckpointMeta &meta)
{
    common::BinWriter out;
    out.writeU64(meta.modelFingerprint);
    out.writeU64(meta.coveredSeq);
    out.writeF64(meta.monitorTime);
    return out.takeBytes();
}

bool
decodeMeta(std::string_view payload, CheckpointMeta &meta)
{
    common::BinReader in(payload);
    meta.modelFingerprint = in.readU64();
    meta.coveredSeq = in.readU64();
    meta.monitorTime = in.readF64();
    return in.ok();
}

std::string
checkpointPath(const std::string &directory)
{
    return (std::filesystem::path(directory) / "checkpoint.ckpt")
        .string();
}

std::string
ledgerPath(const std::string &directory)
{
    return (std::filesystem::path(directory) / "ledger.wal").string();
}

} // namespace cloudseer::vault
