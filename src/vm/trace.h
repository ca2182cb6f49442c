// Execution tracer: a bounded, human-readable log of a MiniVM run.
//
// Attach to an interpreter to capture what executed — instructions with
// operand values, calls with arguments, file reads with offsets. Used
// by the examples and invaluable when a corpus program misbehaves:
//
//   vm::ExecutionTracer tracer(/*max_lines=*/200);
//   vm::Interpreter interp(program, input);
//   interp.AddObserver(&tracer);
//   interp.Run();
//   std::cout << tracer.text();
#pragma once

#include <string>
#include <vector>

#include "vm/interp.h"

namespace octopocs::vm {

class ExecutionTracer : public ExecutionObserver {
 public:
  explicit ExecutionTracer(std::size_t max_lines = 1'000)
      : max_lines_(max_lines) {}

  /// Must outlive the run; needed to render function names.
  void BindProgram(const Program* program) { program_ = program; }

  void OnInstr(FuncId fn, BlockId block, std::size_t ip, const Instr& instr,
               std::uint64_t eff_addr, std::uint64_t value) override;
  void OnCallEnter(FuncId callee, std::span<const std::uint64_t> args,
                   const Instr* call_site) override;
  void OnCallExit(FuncId callee, std::uint64_t ret, bool returns_value,
                  Reg callee_value_reg, Reg caller_dest_reg) override;
  void OnFileRead(std::uint64_t dst_addr, std::uint64_t file_off,
                  std::uint64_t count) override;
  void OnBlockTransfer(FuncId fn, BlockId from, BlockId to) override;

  /// The captured trace. When the line budget was exhausted, ends with
  /// an elision marker.
  const std::string& text() const { return text_; }
  std::size_t lines() const { return lines_; }
  bool truncated() const { return truncated_; }

 private:
  void Emit(const std::string& line);
  std::string FnName(FuncId fn) const;

  const Program* program_ = nullptr;
  std::string text_;
  std::size_t lines_ = 0;
  std::size_t max_lines_;
  std::size_t depth_ = 0;
  bool truncated_ = false;
};

}  // namespace octopocs::vm
