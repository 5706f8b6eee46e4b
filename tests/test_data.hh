/**
 * @file
 * Loader for the checked-in stream fixtures under tests/data/.
 *
 * EPC2 (v1) and EPC3 (v2) are decode-only: nothing in the tree encodes
 * them any more, so the tests that pin their decoders read bytes
 * recorded by the last encoder that wrote them (tests/data/README.md).
 */

#ifndef EARTHPLUS_TESTS_TEST_DATA_HH
#define EARTHPLUS_TESTS_TEST_DATA_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace earthplus::testdata {

/** Contents of tests/data/`name`; empty (and a test failure) if absent. */
inline std::vector<uint8_t>
load(const std::string &name)
{
    std::filesystem::path path =
        std::filesystem::path(__FILE__).parent_path() / "data" / name;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ADD_FAILURE() << "missing test data " << path;
        return {};
    }
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

/** A fixture file holding a sequence of `u32 length | bytes` records. */
inline std::vector<std::vector<uint8_t>>
loadRecords(const std::string &name)
{
    std::vector<uint8_t> bytes = load(name);
    std::vector<std::vector<uint8_t>> records;
    size_t pos = 0;
    while (bytes.size() - pos >= 4) {
        uint32_t n = 0;
        std::memcpy(&n, bytes.data() + pos, 4);
        pos += 4;
        if (n > bytes.size() - pos) {
            ADD_FAILURE() << name << ": record overruns the file";
            break;
        }
        records.emplace_back(bytes.begin() + static_cast<ptrdiff_t>(pos),
                             bytes.begin() +
                                 static_cast<ptrdiff_t>(pos + n));
        pos += n;
    }
    return records;
}

} // namespace earthplus::testdata

#endif // EARTHPLUS_TESTS_TEST_DATA_HH
