#include "logging/record_binio.hpp"

namespace cloudseer::logging {

void
writeLogRecord(common::BinWriter &out, const LogRecord &record)
{
    out.writeU64(record.id);
    out.writeF64(record.timestamp);
    out.writeString(record.node);
    out.writeString(record.service);
    out.writeU8(static_cast<std::uint8_t>(record.level));
    out.writeString(record.body);
    out.writeU64(record.truthExecution);
    out.writeString(record.truthTask);
}

bool
readLogRecord(common::BinReader &in, LogRecord &record)
{
    record.id = in.readU64();
    record.timestamp = in.readF64();
    record.node.assign(in.readStringView());
    record.service.assign(in.readStringView());
    std::uint8_t level = in.readU8();
    record.body.assign(in.readStringView());
    record.truthExecution = in.readU64();
    record.truthTask.assign(in.readStringView());
    if (!in.ok() ||
        level > static_cast<std::uint8_t>(LogLevel::Critical)) {
        in.fail();
        return false;
    }
    record.level = static_cast<LogLevel>(level);
    return true;
}

} // namespace cloudseer::logging
