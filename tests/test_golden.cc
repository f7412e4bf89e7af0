/**
 * @file
 * Golden behaviour lock: every configuration in golden.cc must
 * reproduce its committed signature (tests/golden/signatures.txt)
 * field for field. A refactor that claims to change nothing proves it
 * here; a deliberate behaviour change shows exactly which fields moved
 * and is recorded by regenerating the file with scripts/regen_golden.sh.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "golden.hh"

namespace flashsim::golden
{
namespace
{

const std::map<std::string, Signature> &
committed()
{
    static const std::map<std::string, Signature> sigs = [] {
        std::ifstream in(FLASHSIM_GOLDEN_FILE);
        if (!in)
            ADD_FAILURE() << "cannot open " << FLASHSIM_GOLDEN_FILE;
        return readSignatures(in);
    }();
    return sigs;
}

class GoldenTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(GoldenTest, MatchesCommittedSignature)
{
    const auto it = committed().find(GetParam());
    ASSERT_NE(it, committed().end())
        << "no committed signature for " << GetParam()
        << " (scripts/regen_golden.sh)";
    const Signature &want = it->second;
    const Signature got = runConfig(GetParam());

    std::map<std::string, std::string> gotByField(got.begin(), got.end());
    std::map<std::string, std::string> wantByField(want.begin(),
                                                   want.end());
    std::ostringstream diff;
    int mismatches = 0;
    for (const auto &[field, value] : want) {
        const auto g = gotByField.find(field);
        const std::string now =
            g == gotByField.end() ? "<missing>" : g->second;
        if (now != value) {
            ++mismatches;
            diff << "  " << field << ": golden " << value << ", now "
                 << now << '\n';
        }
    }
    for (const auto &[field, value] : got) {
        if (!wantByField.count(field)) {
            ++mismatches;
            diff << "  " << field << ": not in golden, now " << value
                 << '\n';
        }
    }
    EXPECT_EQ(mismatches, 0) << GetParam() << " differs in " << mismatches
                             << " field(s):\n"
                             << diff.str();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GoldenTest, ::testing::ValuesIn(configNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace flashsim::golden
