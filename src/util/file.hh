/**
 * @file
 * Atomic whole-file writes (temp file + rename).
 *
 * Every durable artifact the harness produces — memo-cache entries, stats
 * JSON/CSV — goes through this helper so a crash, kill -9, or concurrent
 * writer can never leave a truncated file under the final name (a trace
 * is streamed to a staging name and renamed the same way): readers see the
 * previous complete version or the new complete version, nothing in
 * between. rename(2) on the same filesystem gives the atomicity; the temp
 * name embeds pid + a process-wide sequence number so concurrent writers
 * (parallel sweep jobs) never collide on the staging file either.
 */

#ifndef GCL_UTIL_FILE_HH
#define GCL_UTIL_FILE_HH

#include <string>
#include <string_view>

namespace gcl
{

/**
 * Write @p content to @p path atomically (temp file in the same
 * directory, then rename over the final name).
 *
 * @param error when non-null, receives a description of the failure
 * @retval true the file is complete under @p path
 */
bool atomicWriteFile(const std::string &path, std::string_view content,
                     std::string *error = nullptr);

} // namespace gcl

#endif // GCL_UTIL_FILE_HH
