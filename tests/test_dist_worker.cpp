// worker_main's error path against a real cav_worker: a frame the worker
// does not serve — a retired type number, or a stripe before any campaign
// is set up — is answered with kHello, then kWorkerError naming the
// reason, then EOF as the worker exits.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "dist/process.h"
#include "dist/wire.h"

namespace cav::dist {
namespace {

/// Read one frame, failing instead of hanging when the worker goes quiet.
std::optional<Frame> read_frame_within(int fd, int timeout_ms) {
  if (!wait_readable(fd, timeout_ms)) throw ProtocolError("worker went quiet");
  return read_frame(fd);
}

TEST(DistWorkerTest, UnservedFrameGetsWorkerErrorThenEof) {
  struct Case {
    std::uint32_t type;
    const char* reason;
  };
  const Case cases[] = {
      {3, "unexpected frame type in worker"},
      {4, "unexpected frame type in worker"},
      {5, "unexpected frame type in worker"},
      {6, "unexpected frame type in worker"},
      {static_cast<std::uint32_t>(MsgType::kRunStripe), "stripe before campaign setup"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("frame type " + std::to_string(c.type));
    WorkerProcess worker = WorkerProcess::spawn(find_worker_binary(""));
    write_frame(worker.in_fd(), static_cast<MsgType>(c.type), {});

    const std::optional<Frame> hello = read_frame_within(worker.out_fd(), 10000);
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->type, MsgType::kHello);

    const std::optional<Frame> error = read_frame_within(worker.out_fd(), 10000);
    ASSERT_TRUE(error.has_value());
    ASSERT_EQ(error->type, MsgType::kWorkerError);
    ByteReader in(error->payload);
    const std::string message = in.str();
    EXPECT_NE(message.find(c.reason), std::string::npos) << message;

    EXPECT_FALSE(read_frame_within(worker.out_fd(), 10000).has_value())
        << "the worker must exit after reporting the error";
  }
}

}  // namespace
}  // namespace cav::dist
