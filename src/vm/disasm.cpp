#include "vm/disasm.h"

#include <string>

#include "support/hex.h"

namespace octopocs::vm {

namespace {

// Names are built by appending to the prefix: "lit" + std::string&&
// trips GCC 12's -Wrestrict false positive once inlined.
std::string RegName(Reg r) {
  return std::string("%r").append(std::to_string(r));
}

std::string Label(BlockId b) {
  return std::string("L").append(std::to_string(b));
}

std::string ImmStr(std::uint64_t v) {
  // Render small values as decimal, everything else as hex.
  if (v < 4096) return std::to_string(v);
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void RenderInstr(const Program& program, const Instr& ins, std::string& out) {
  const std::string mn(OpName(ins.op));
  out += "  ";
  switch (ins.op) {
    case Op::kMovImm:
      out += mn + " " + RegName(ins.a) + ", " + ImmStr(ins.imm);
      break;
    case Op::kMov:
    case Op::kNot:
      out += mn + " " + RegName(ins.a) + ", " + RegName(ins.b);
      break;
    case Op::kAddImm:
      out += mn + " " + RegName(ins.a) + ", " + RegName(ins.b) + ", " +
             ImmStr(ins.imm);
      break;
    case Op::kLoad:
    case Op::kStore:
      out += mn + "." + std::to_string(ins.width) + " " + RegName(ins.a) +
             ", " + RegName(ins.b) + ", " + ImmStr(ins.imm);
      break;
    case Op::kAlloc:
      out += mn + " " + RegName(ins.a) + ", " + RegName(ins.b);
      break;
    case Op::kFree:
    case Op::kAssert:
    case Op::kTell:
    case Op::kMMap:
    case Op::kFileSize:
      out += mn + " " + RegName(ins.a);
      break;
    case Op::kSeek:
      out += mn + " " + RegName(ins.b);
      break;
    case Op::kRead:
      out += mn + " " + RegName(ins.a) + ", " + RegName(ins.b) + ", " +
             RegName(ins.c);
      break;
    case Op::kCall:
    case Op::kICall: {
      out += mn + " " + RegName(ins.a) + ", ";
      if (ins.op == Op::kCall) {
        out += program.Fn(static_cast<FuncId>(ins.imm)).name;
      } else {
        out += RegName(ins.b);
      }
      out += "(";
      for (std::size_t i = 0; i < ins.args.size(); ++i) {
        if (i != 0) out += ", ";
        out += RegName(ins.args[i]);
      }
      out += ")";
      break;
    }
    case Op::kFnAddr:
      out += mn + " " + RegName(ins.a) + ", " +
             program.Fn(static_cast<FuncId>(ins.imm)).name;
      break;
    case Op::kTrap:
    case Op::kNop:
      out += mn;
      break;
    default:  // three-register ALU
      out += mn + " " + RegName(ins.a) + ", " + RegName(ins.b) + ", " +
             RegName(ins.c);
      break;
  }
  out += "\n";
}

}  // namespace

std::string DisassembleFunction(const Program& program, FuncId id) {
  const Function& fn = program.Fn(id);
  std::string out = "func " + fn.name + "(";
  for (std::uint8_t i = 0; i < fn.num_params; ++i) {
    if (i != 0) out += ", ";
    out += 'r';
    out += std::to_string(i);
  }
  out += ")\n";
  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    out += Label(b) + ":\n";
    const Block& block = fn.blocks[b];
    for (const Instr& ins : block.instrs) {
      // `trap` doubles as a terminator in assembler syntax; skip the
      // synthetic `ret` that follows it when rendering.
      RenderInstr(program, ins, out);
      if (ins.op == Op::kTrap) break;
    }
    if (block.instrs.empty() || block.instrs.back().op != Op::kTrap) {
      const Terminator& t = block.term;
      switch (t.kind) {
        case TermKind::kJump:
          out += "  jmp " + Label(t.target) + "\n";
          break;
        case TermKind::kBranch:
          out += "  br " + RegName(t.cond) + ", " + Label(t.target) + ", " +
                 Label(t.fallthrough) + "\n";
          break;
        case TermKind::kReturn:
          out += t.returns_value ? "  ret " + RegName(t.cond) + "\n"
                                 : "  ret\n";
          break;
      }
    }
  }
  return out;
}

std::string Disassemble(const Program& program) {
  std::string out;
  if (!program.name.empty()) {
    out += "program \"" + program.name + "\"\n\n";
  }
  for (const RodataSymbol& sym : program.rodata_symbols) {
    out += "data " + sym.name + ":\n  .bytes ";
    out += ToHex(ByteView(program.rodata).subspan(sym.offset, sym.size));
    out += "\n\n";
  }
  for (FuncId id = 0; id < program.functions.size(); ++id) {
    out += DisassembleFunction(program, id);
    out += "\n";
  }
  return out;
}

}  // namespace octopocs::vm
