/**
 * @file
 * Temporary paths for the test suites: a file or archive directory under
 * the gtest temp directory, removed (recursively) when constructed and
 * again when destroyed. The process id is part of the path, so test
 * binaries running concurrently (`ctest -j`) never share one.
 */

#ifndef EARTHPLUS_TESTS_TEMP_PATH_HH
#define EARTHPLUS_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include <unistd.h>

namespace earthplus::testutil {

/** Temp path that cleans up after itself. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + std::to_string(::getpid()) + "-" +
                name)
    {
        std::filesystem::remove_all(path_);
    }

    ~TempPath() { std::filesystem::remove_all(path_); }

    TempPath(const TempPath &) = delete;            ///< Non-copyable.
    TempPath &operator=(const TempPath &) = delete; ///< Non-copyable.

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

} // namespace earthplus::testutil

#endif // EARTHPLUS_TESTS_TEMP_PATH_HH
