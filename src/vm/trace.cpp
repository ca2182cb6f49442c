#include "vm/trace.h"

#include <cstdio>

namespace octopocs::vm {

void ExecutionTracer::Emit(const std::string& line) {
  if (lines_ >= max_lines_) {
    if (!truncated_) {
      text_ += "... (trace truncated)\n";
      truncated_ = true;
    }
    return;
  }
  text_ += std::string(depth_ * 2, ' ');
  text_ += line;
  text_ += '\n';
  ++lines_;
}

std::string ExecutionTracer::FnName(FuncId fn) const {
  if (program_ != nullptr && fn < program_->functions.size()) {
    return program_->Fn(fn).name;
  }
  return "fn" + std::to_string(fn);
}

void ExecutionTracer::OnInstr(FuncId, BlockId, std::size_t,
                              const Instr& instr, std::uint64_t eff_addr,
                              std::uint64_t value) {
  char buf[128];
  switch (instr.op) {
    case Op::kLoad:
      std::snprintf(buf, sizeof buf, "%s.%u r%u <- [0x%llx] = 0x%llx",
                    OpName(instr.op).data(), instr.width, instr.a,
                    static_cast<unsigned long long>(eff_addr),
                    static_cast<unsigned long long>(value));
      break;
    case Op::kStore:
      std::snprintf(buf, sizeof buf, "%s.%u [0x%llx] <- 0x%llx",
                    OpName(instr.op).data(), instr.width,
                    static_cast<unsigned long long>(eff_addr),
                    static_cast<unsigned long long>(value));
      break;
    case Op::kAlloc:
      std::snprintf(buf, sizeof buf, "alloc r%u = 0x%llx", instr.a,
                    static_cast<unsigned long long>(value));
      break;
    default:
      // Keep the trace focused: plain ALU traffic is high-volume and
      // low-signal; record only value-producing memory/file/call events
      // plus control flow (block transfers).
      return;
  }
  Emit(buf);
}

void ExecutionTracer::OnCallEnter(FuncId callee,
                                  std::span<const std::uint64_t> args,
                                  const Instr*) {
  std::string line = "call " + FnName(callee) + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) line += ", ";
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(args[i]));
    line += buf;
  }
  line += ")";
  Emit(line);
  ++depth_;
}

void ExecutionTracer::OnCallExit(FuncId callee, std::uint64_t ret, bool,
                                 Reg, Reg) {
  if (depth_ > 0) --depth_;
  char buf[64];
  std::snprintf(buf, sizeof buf, "ret %s = 0x%llx", FnName(callee).c_str(),
                static_cast<unsigned long long>(ret));
  Emit(buf);
}

void ExecutionTracer::OnFileRead(std::uint64_t dst_addr,
                                 std::uint64_t file_off,
                                 std::uint64_t count) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "read file[%llu..%llu) -> 0x%llx",
                static_cast<unsigned long long>(file_off),
                static_cast<unsigned long long>(file_off + count),
                static_cast<unsigned long long>(dst_addr));
  Emit(buf);
}

void ExecutionTracer::OnBlockTransfer(FuncId fn, BlockId from, BlockId to) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "-> %s:b%u (from b%u)",
                FnName(fn).c_str(), to, from);
  Emit(buf);
}

}  // namespace octopocs::vm
