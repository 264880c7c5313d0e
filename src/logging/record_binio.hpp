/**
 * @file
 * Binary (de)serialisation of LogRecord (seer-vault, DESIGN.md §13).
 *
 * The vault's write-ahead ledger and the monitor's reorder-buffer
 * snapshot both persist full LogRecords. The text wire format
 * (encodeLogLine) is NOT reusable here: decodeLogLine assigns no
 * record id, and reports reference records by id — a replay through
 * the text codec would change every report's `records` array. The
 * binary codec round-trips every field, ground truth included, so a
 * restored monitor replays exactly the records the crashed one saw.
 */

#ifndef CLOUDSEER_LOGGING_RECORD_BINIO_HPP
#define CLOUDSEER_LOGGING_RECORD_BINIO_HPP

#include "common/binio.hpp"
#include "logging/log_record.hpp"

namespace cloudseer::logging {

/** Append one record to a binary stream. */
void writeLogRecord(common::BinWriter &out, const LogRecord &record);

/**
 * Decode one record written by writeLogRecord. Returns false (stream
 * marked bad) on truncation or a corrupt level byte. The text fields
 * are assigned in place, so a record reused across calls (ledger
 * replay) keeps its strings' capacity.
 */
bool readLogRecord(common::BinReader &in, LogRecord &record);

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_RECORD_BINIO_HPP
