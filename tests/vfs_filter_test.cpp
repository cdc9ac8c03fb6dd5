// Tests for the minifilter-style filter stack: callback ordering, deny
// semantics and event payloads.
#include <gtest/gtest.h>

#include "vfs/filesystem.hpp"
#include "vfs/filter.hpp"

namespace cryptodrop::vfs {
namespace {

/// Scripted filter: records callback order and can deny selected ops.
class ScriptedFilter : public Filter {
 public:
  explicit ScriptedFilter(std::string tag, std::vector<std::string>* log)
      : tag_(std::move(tag)), log_(log) {}

  Verdict pre_operation(const OperationEvent& event) override {
    log_->push_back(tag_ + ":pre:" + std::string(op_name(event.op)));
    last_event = event;
    last_event.data = {};  // spans die with the callback; don't retain
    if (deny_op.has_value() && event.op == *deny_op) return Verdict::deny;
    return Verdict::allow;
  }

  void post_operation(const OperationEvent& event, const Status& outcome) override {
    log_->push_back(tag_ + ":post:" + std::string(op_name(event.op)) +
                    (outcome.is_ok() ? ":ok" : ":err"));
  }

  void on_attach(FileSystem& fs) override { attached_to = &fs; }

  std::string tag_;
  std::vector<std::string>* log_;
  std::optional<OpType> deny_op;
  OperationEvent last_event;
  FileSystem* attached_to = nullptr;
};

class FilterTest : public ::testing::Test {
 protected:
  FileSystem fs;
  std::vector<std::string> log;
  ScriptedFilter top{"top", &log};
  ScriptedFilter bottom{"bottom", &log};
  ProcessId pid = 0;

  void SetUp() override {
    pid = fs.register_process("app");
    fs.attach_filter(&top);
    fs.attach_filter(&bottom);
  }
};

TEST_F(FilterTest, OnAttachReceivesFilesystem) {
  EXPECT_EQ(top.attached_to, &fs);
}

TEST_F(FilterTest, PreInOrderPostInReverse) {
  ASSERT_TRUE(fs.mkdir(pid, "d").is_ok());
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "top:pre:mkdir");
  EXPECT_EQ(log[1], "bottom:pre:mkdir");
  EXPECT_EQ(log[2], "bottom:post:mkdir:ok");
  EXPECT_EQ(log[3], "top:post:mkdir:ok");
}

TEST_F(FilterTest, DenyFailsOperationWithAccessDenied) {
  top.deny_op = OpType::mkdir;
  EXPECT_EQ(fs.mkdir(pid, "d").code(), Errc::access_denied);
  EXPECT_FALSE(fs.exists("d"));
}

TEST_F(FilterTest, DenyByFirstFilterSkipsSecondsPre) {
  top.deny_op = OpType::mkdir;
  (void)fs.mkdir(pid, "d");
  // bottom never saw a pre; top saw its own pre + the denial post.
  for (const std::string& entry : log) {
    EXPECT_NE(entry, "bottom:pre:mkdir");
  }
  EXPECT_EQ(log.back(), "top:post:mkdir:err");
}

TEST_F(FilterTest, DenyBySecondFilterNotifiesBoth) {
  bottom.deny_op = OpType::remove;
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  log.clear();
  EXPECT_EQ(fs.remove(pid, "f").code(), Errc::access_denied);
  EXPECT_TRUE(fs.exists("f"));
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "top:pre:remove");
  EXPECT_EQ(log[1], "bottom:pre:remove");
  EXPECT_EQ(log[2], "bottom:post:remove:err");
  EXPECT_EQ(log[3], "top:post:remove:err");
}

TEST_F(FilterTest, DeniedWriteLeavesContentIntact) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("original")).is_ok());
  top.deny_op = OpType::write;
  auto h = fs.open(pid, "f", kRead | kWrite);
  ASSERT_TRUE(h.is_ok());
  EXPECT_EQ(fs.write(pid, h.value(), to_bytes("mutated")).code(), Errc::access_denied);
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(to_string(ByteView(*fs.read_unfiltered("f"))), "original");
}

TEST_F(FilterTest, DeniedOpenCreatesNothing) {
  top.deny_op = OpType::open;
  EXPECT_EQ(fs.open(pid, "new.txt", kCreate).code(), Errc::access_denied);
  EXPECT_FALSE(fs.exists("new.txt"));
  EXPECT_EQ(fs.open_handle_count(), 0u);
}

TEST_F(FilterTest, DeniedRenameLeavesBothFiles) {
  ASSERT_TRUE(fs.write_file(pid, "src", to_bytes("s")).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "dst", to_bytes("d")).is_ok());
  top.deny_op = OpType::rename;
  EXPECT_EQ(fs.rename(pid, "src", "dst").code(), Errc::access_denied);
  EXPECT_EQ(to_string(ByteView(*fs.read_unfiltered("src"))), "s");
  EXPECT_EQ(to_string(ByteView(*fs.read_unfiltered("dst"))), "d");
}

TEST_F(FilterTest, WriteEventCarriesDataAndOffset) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("0123456789")).is_ok());
  auto h = fs.open(pid, "f", kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.seek(pid, h.value(), 4).is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), to_bytes("XY")).is_ok());
  EXPECT_EQ(top.last_event.op, OpType::write);
  EXPECT_EQ(top.last_event.offset, 4u);
  EXPECT_EQ(top.last_event.length, 2u);
  EXPECT_EQ(top.last_event.path, "f");
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
}

TEST_F(FilterTest, OpenEventDistinguishesCreateFromExisting) {
  (void)fs.open(pid, "fresh.txt", kCreate);
  EXPECT_EQ(top.last_event.file_id, kNoFile);  // creation: no id yet
  EXPECT_TRUE(top.last_event.open_mode & kCreate);
}

TEST_F(FilterTest, CloseEventReportsWroteFlag) {
  auto h = fs.open(pid, "f", kCreate);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), to_bytes("abc")).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(top.last_event.op, OpType::close);
  EXPECT_TRUE(top.last_event.wrote);
  EXPECT_EQ(top.last_event.wrote_bytes, 3u);

  ASSERT_TRUE(fs.read_file(pid, "f").is_ok());
  EXPECT_EQ(top.last_event.op, OpType::close);
  EXPECT_FALSE(top.last_event.wrote);
}

TEST_F(FilterTest, RenameEventCarriesBothPathsAndIds) {
  ASSERT_TRUE(fs.write_file(pid, "src", to_bytes("s")).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "dst", to_bytes("d")).is_ok());
  const FileId src_id = fs.stat("src").value().id;
  const FileId dst_id = fs.stat("dst").value().id;
  ASSERT_TRUE(fs.rename(pid, "src", "dst").is_ok());
  EXPECT_EQ(top.last_event.op, OpType::rename);
  EXPECT_EQ(top.last_event.path, "src");
  EXPECT_EQ(top.last_event.dest_path, "dst");
  EXPECT_EQ(top.last_event.file_id, src_id);
  EXPECT_EQ(top.last_event.dest_file_id, dst_id);
}

TEST_F(FilterTest, EventsCarryProcessIdentity) {
  const ProcessId other = fs.register_process("second_app");
  ASSERT_TRUE(fs.write_file(other, "f", to_bytes("x")).is_ok());
  EXPECT_EQ(top.last_event.pid, other);
  EXPECT_EQ(top.last_event.process_name, "second_app");
}

TEST_F(FilterTest, DetachStopsCallbacks) {
  fs.detach_filter(&top);
  log.clear();
  ASSERT_TRUE(fs.mkdir(pid, "d").is_ok());
  for (const std::string& entry : log) {
    EXPECT_TRUE(entry.rfind("bottom:", 0) == 0) << entry;
  }
}

TEST_F(FilterTest, UnfilteredAccessorsGenerateNoEvents) {
  ASSERT_TRUE(fs.put_file_raw("raw.txt", to_bytes("data")).is_ok());
  log.clear();
  (void)fs.read_unfiltered("raw.txt");
  (void)fs.stat("raw.txt");
  (void)fs.list("");
  (void)fs.list_files_recursive("");
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace cryptodrop::vfs
