/**
 * @file
 * Golden behaviour lock: a fixed set of simulator configurations and
 * the full simulated-result signature of each — execution cycles,
 * every Summary field, the final-state digest, mesh counters, PP
 * execution statistics and (where verification is on) the sentinel's
 * verdicts and injector counters. The committed signatures live in
 * tests/golden/signatures.txt; test_golden.cc checks every config
 * against them, and golden_dump (scripts/regen_golden.sh) rewrites
 * the file when a deliberate behaviour change has to be recorded.
 */

#ifndef FLASHSIM_TESTS_GOLDEN_HH_
#define FLASHSIM_TESTS_GOLDEN_HH_

#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace flashsim::golden
{

/** Ordered (field, value) pairs; values are exact text (integers in
 *  decimal, doubles at round-trip precision). */
using Signature = std::vector<std::pair<std::string, std::string>>;

/** Every locked configuration, in file order. */
std::vector<std::string> configNames();

/** Run configuration @p name and collect its signature. */
Signature runConfig(const std::string &name);

/** Append one config's block to @p os. */
void writeSignature(std::ostream &os, const std::string &name,
                    const Signature &sig);

/** Parse a signatures file (config name -> signature). */
std::map<std::string, Signature> readSignatures(std::istream &is);

} // namespace flashsim::golden

#endif // FLASHSIM_TESTS_GOLDEN_HH_
