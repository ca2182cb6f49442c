#include "gen/generator.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clone/detector.h"
#include "formats/formats.h"
#include "support/rng.h"
#include "vm/asm.h"
#include "vm/disasm.h"
#include "vm/interp.h"

namespace octopocs::gen {
namespace {

// ---------------------------------------------------------------------------
// Parser skeletons. Each mirrors one of the miniature src/formats
// containers: a little-endian u32 magic, a reserved header byte (read but
// never loaded by S — the symex-hostile variants hinge on it being
// untainted), an optional element count, then a dispatch loop over
// length-prefixed elements, one type of which calls the shared area.
// ---------------------------------------------------------------------------

enum class Dispatch {
  kSeg2,    // [type:1][len:2] segments, explicit end marker      (MJPG)
  kBlock1,  // [type:1] blocks, non-vuln blocks carry [len:1]     (MGIF)
  kRec1,    // counted [type:1] records with [len:1] skip         (MTIF)
  kObj2,    // counted [type:1][len:2] objects                    (MPDF)
  kDirect,  // header then a single direct call                   (MJ2K)
};

struct Skeleton {
  const char* key;
  std::uint32_t magic;
  int header_len;   // bytes of the fixed header (includes count byte)
  bool counted;     // count byte lives at header offset 5
  Dispatch dispatch;
  int elem_header_len;  // vuln element's own header before the payload
  std::uint8_t vuln_type;
  std::uint8_t end_type;   // kSeg2/kBlock1 only
  std::uint8_t lead_type;  // benign element type for the skip path
};

constexpr Skeleton kSkeletons[] = {
    // MJPG reuses the real stream-chunk / end segment types.
    {"mjpg", 0x47504a4du, 5, false, Dispatch::kSeg2, 3,
     formats::kMjpgStreamChunk, formats::kMjpgEnd, 0x10},
    {"mgif", 0x4649474du, 5, false, Dispatch::kBlock1, 1, 0x2c, 0x3b, 0x21},
    {"mtif", 0x4649544du, 6, true, Dispatch::kRec1, 1, 0x07, 0x00, 0x09},
    {"mpdf", 0x4644504du, 6, true, Dispatch::kObj2, 3, 0x02, 0x00, 0x01},
    {"mj2k", 0x4b324a4du, 5, false, Dispatch::kDirect, 0, 0x00, 0x00, 0x00},
};
constexpr int kSkeletonCount = 5;

int FirstPayloadOff(const Skeleton& sk) {
  return sk.header_len + sk.elem_header_len;
}

// ---------------------------------------------------------------------------
// Vulnerability classes. Each is a self-contained ℓ (`func gen_area`)
// that reads its own payload from the current file position. Loops live
// inside ℓ, where symex never traverses (P2/P3 pins bunches at the ep
// boundary), so symbolic-bound loops here are safe by construction.
// ---------------------------------------------------------------------------

enum class GuardKind { kNone, kLen16Le32, kByteLt4, kByteNe0 };

struct VulnClass {
  const char* key;
  const char* cwe;
  vm::TrapKind trap;
  bool guardable;    // guard-insert produces a *sound* patch
  bool hostile_ok;   // cheap enough per-exec for the fuzz rung
  GuardKind guard;
  int guard_off;     // payload offset of the guarded field
  int guard_width;
  const char* body;  // "  func gen_area(mode)\n..."
};

// OOB write: 16-bit length field trusted into a 32-byte staging read.
const char* kVulnOobWrite = R"(
  func gen_area(mode)
    movi %two, 2
    alloc %lenbuf, %two
    read %got, %lenbuf, %two
    load.2 %len, %lenbuf, 0
    movi %cap, 32
    alloc %staging, %cap
    read %gdata, %staging, %len
    ret %len
)";

// OOB read: 8-byte-slot table indexed by an unchecked byte. The table is
// the most recent allocation, so any slot >= 4 lands outside every live
// region.
const char* kVulnOobRead = R"(
  func gen_area(mode)
    movi %one, 1
    alloc %idxbuf, %one
    read %got, %idxbuf, %one
    load.1 %idx, %idxbuf, 0
    movi %tabsz, 32
    alloc %tab, %tabsz
    movi %eight, 8
    mul %off, %idx, %eight
    add %slot, %tab, %off
    load.8 %val, %slot, 0
    ret %val
)";

// Null deref: a zero-initialized pointer table is populated for ncomp
// components; component 0 is dereferenced unconditionally. The table has
// 256 slots so *only* ncomp == 0 can crash — that soundness is what makes
// the guard-insert variant genuinely NotTriggerable.
const char* kVulnNullDeref = R"(
  func gen_area(mode)
    movi %one, 1
    alloc %cntbuf, %one
    read %got, %cntbuf, %one
    load.1 %ncomp, %cntbuf, 0
    movi %tabsz, 2048
    alloc %ptrs, %tabsz
    movi %i, 0
  mkloop:
    cmpltu %more, %i, %ncomp
    br %more, mkone, use
  mkone:
    movi %csz, 16
    alloc %comp, %csz
    movi %eight, 8
    mul %slotoff, %i, %eight
    add %slot, %ptrs, %slotoff
    store.8 %comp, %slot, 0
    addi %i, %i, 1
    jmp mkloop
  use:
    load.8 %first, %ptrs, 0
    load.4 %px, %first, 0
    ret %px
)";

// Division by zero: [w:2][den:1], den trusted.
const char* kVulnDiv0 = R"(
  func gen_area(mode)
    movi %three, 3
    alloc %hdr, %three
    read %got, %hdr, %three
    load.2 %w, %hdr, 0
    load.1 %den, %hdr, 2
    divu %scaled, %w, %den
    ret %scaled
)";

// Fuel loop (CWE-835): a stride walk over a 256-residue ring that only
// terminates when the walk hits 255. Odd strides generate the full ring
// (terminate); even strides never reach 255 — an exact-state cycle the
// interpreter fast-forwards to kFuelExhausted.
const char* kVulnFuelLoop = R"(
  func gen_area(mode)
    movi %one, 1
    alloc %sbuf, %one
    read %got, %sbuf, %one
    load.1 %stride, %sbuf, 0
    movi %mask, 255
    movi %target, 255
    movi %i, 0
  walk:
    cmpeq %done, %i, %target
    br %done, fin, step
  step:
    add %i, %i, %stride
    and %i, %i, %mask
    jmp walk
  fin:
    ret %i
)";

// Use after free: [nrec:1] then [kind:1][val:1] records; kind 0xFE frees
// the scratch buffer, data records store through it.
const char* kVulnUaf = R"(
  func gen_area(mode)
    movi %ssz, 8
    alloc %scratch, %ssz
    movi %one, 1
    alloc %cbuf, %one
    read %got, %cbuf, %one
    load.1 %nrec, %cbuf, 0
    movi %two, 2
    alloc %rec, %two
    movi %i, 0
  recloop:
    cmpltu %more, %i, %nrec
    br %more, recbody, recdone
  recbody:
    read %grec, %rec, %two
    load.1 %kind, %rec, 0
    movi %freemark, 254
    cmpeq %isfree, %kind, %freemark
    br %isfree, dofree, dodata
  dofree:
    free %scratch
    addi %i, %i, 1
    jmp recloop
  dodata:
    load.1 %val, %rec, 1
    store.1 %val, %scratch, 0
    addi %i, %i, 1
    jmp recloop
  recdone:
    ret %i
)";

const VulnClass kVulnClasses[] = {
    {"oob-write", "CWE-787", vm::TrapKind::kOutOfBounds, true, true,
     GuardKind::kLen16Le32, 0, 2, kVulnOobWrite},
    {"oob-read", "CWE-125", vm::TrapKind::kOutOfBounds, true, true,
     GuardKind::kByteLt4, 0, 1, kVulnOobRead},
    {"null-deref", "CWE-476", vm::TrapKind::kNullDeref, true, false,
     GuardKind::kByteNe0, 0, 1, kVulnNullDeref},
    {"div0", "CWE-369", vm::TrapKind::kDivByZero, true, true,
     GuardKind::kByteNe0, 2, 1, kVulnDiv0},
    // A single-byte guard is not sound for these two (any even stride
    // hangs; any record stream with a free before a store crashes), so
    // guard-insert and the fuzz rung skip them.
    {"fuel-loop", "CWE-835", vm::TrapKind::kFuelExhausted, false, false,
     GuardKind::kNone, 0, 1, kVulnFuelLoop},
    {"uaf", "CWE-416", vm::TrapKind::kUseAfterFree, false, false,
     GuardKind::kNone, 0, 1, kVulnUaf},
};
constexpr int kVulnClassCount = 6;

Bytes TriggerPayload(const VulnClass& vc, Rng& rng) {
  Bytes p;
  std::string key = vc.key;
  if (key == "oob-write") {
    AppendLe(p, 48, 2);  // staging is 32 bytes
    for (int i = 0; i < 48; ++i) p.push_back(static_cast<std::uint8_t>(rng.Below(256)));
  } else if (key == "oob-read") {
    p.push_back(9);  // 4 valid slots
  } else if (key == "null-deref") {
    p.push_back(0);
  } else if (key == "div0") {
    AppendLe(p, 0x40, 2);
    p.push_back(0);
  } else if (key == "fuel-loop") {
    p.push_back(2);  // even stride: never reaches 255
  } else {           // uaf: data, free, data-through-freed
    p.push_back(3);
    p.push_back(0x01); p.push_back(static_cast<std::uint8_t>(rng.Below(256)));
    p.push_back(0xfe); p.push_back(0x00);
    p.push_back(0x01); p.push_back(static_cast<std::uint8_t>(rng.Below(256)));
  }
  return p;
}

Bytes BenignPayload(const VulnClass& vc, Rng& rng) {
  Bytes p;
  std::string key = vc.key;
  if (key == "oob-write") {
    AppendLe(p, 16, 2);
    for (int i = 0; i < 16; ++i) p.push_back(static_cast<std::uint8_t>(rng.Below(256)));
  } else if (key == "oob-read") {
    p.push_back(static_cast<std::uint8_t>(rng.Below(4)));
  } else if (key == "null-deref") {
    p.push_back(static_cast<std::uint8_t>(1 + rng.Below(6)));
  } else if (key == "div0") {
    AppendLe(p, 0x40, 2);
    p.push_back(static_cast<std::uint8_t>(1 + rng.Below(250)));
  } else if (key == "fuel-loop") {
    p.push_back(static_cast<std::uint8_t>(1 + 2 * rng.Below(120)));  // odd
  } else {  // uaf: two data records, no free
    p.push_back(2);
    p.push_back(0x01); p.push_back(static_cast<std::uint8_t>(rng.Below(256)));
    p.push_back(0x01); p.push_back(static_cast<std::uint8_t>(rng.Below(256)));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Container construction.
// ---------------------------------------------------------------------------

Bytes BuildContainer(const Skeleton& sk, const std::vector<Bytes>& leads,
                     ByteView payload) {
  Bytes out;
  AppendLe(out, sk.magic, 4);
  out.push_back(0);  // reserved byte (offset 4) — untainted in S
  if (sk.counted)
    out.push_back(static_cast<std::uint8_t>(leads.size() + 1));
  for (const Bytes& filler : leads) {
    switch (sk.dispatch) {
      case Dispatch::kSeg2:
        out.push_back(sk.lead_type);
        AppendLe(out, filler.size(), 2);
        break;
      case Dispatch::kBlock1:
        out.push_back(sk.lead_type);
        out.push_back(static_cast<std::uint8_t>(filler.size()));
        break;
      case Dispatch::kRec1:
        out.push_back(sk.lead_type);
        out.push_back(static_cast<std::uint8_t>(filler.size()));
        break;
      case Dispatch::kObj2:
        out.push_back(sk.lead_type);
        AppendLe(out, filler.size(), 2);
        break;
      case Dispatch::kDirect:
        break;  // no elements
    }
    AppendBytes(out, filler);
  }
  switch (sk.dispatch) {
    case Dispatch::kSeg2:
      out.push_back(sk.vuln_type);
      AppendLe(out, payload.size(), 2);
      break;
    case Dispatch::kBlock1:
    case Dispatch::kRec1:
      out.push_back(sk.vuln_type);
      break;
    case Dispatch::kObj2:
      out.push_back(sk.vuln_type);
      AppendLe(out, payload.size(), 2);
      break;
    case Dispatch::kDirect:
      break;
  }
  AppendBytes(out, payload);
  if (sk.dispatch == Dispatch::kSeg2) {
    out.push_back(sk.end_type);
    AppendLe(out, 0, 2);
  } else if (sk.dispatch == Dispatch::kBlock1) {
    out.push_back(sk.end_type);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Harness construction. main() is emitted as an unlabeled entry that
// jumps to the first of an ordered list of labeled sections, each ending
// in an explicit terminator — so the reorder-blocks transform is a pure
// permutation of emission order with identical control flow.
// ---------------------------------------------------------------------------

struct HarnessCfg {
  const Skeleton* sk = nullptr;
  std::string program_name;
  std::string callee = "gen_area";
  // Padding preamble (every T): a tiny data-driven accumulate loop whose
  // immediates (pad_n, pad_mix) are unique per program, so main never
  // fingerprint-matches another harness.
  bool pad = false;
  int pad_n = 3;
  std::uint32_t pad_mix = 0;
  std::vector<std::uint8_t> pad_data;
  bool outline = false;               // header validation in check_hdr()
  bool hostile = false;               // symex-hostile gate + warm loop
  const VulnClass* guard = nullptr;   // non-null: guard-insert peek
  bool reorder = false;
  Rng* reorder_rng = nullptr;
};

struct Section {
  std::string label;
  std::string body;  // instruction lines, ends with a terminator
};

void EmitGuardAsserts(const VulnClass& vc, int payload_base, std::string* out) {
  char buf[512];
  int off = payload_base + vc.guard_off;
  switch (vc.guard) {
    case GuardKind::kLen16Le32:
      std::snprintf(buf, sizeof buf,
                    "    load.1 %%glo, %%peek, %d\n"
                    "    movi %%glim, 32\n"
                    "    cmpleu %%gok, %%glo, %%glim\n"
                    "    assert %%gok\n"
                    "    load.1 %%ghi, %%peek, %d\n"
                    "    movi %%gzero, 0\n"
                    "    cmpeq %%gok2, %%ghi, %%gzero\n"
                    "    assert %%gok2\n",
                    off, off + 1);
      break;
    case GuardKind::kByteLt4:
      std::snprintf(buf, sizeof buf,
                    "    load.1 %%gidx, %%peek, %d\n"
                    "    movi %%glim, 4\n"
                    "    cmpltu %%gok, %%gidx, %%glim\n"
                    "    assert %%gok\n",
                    off);
      break;
    case GuardKind::kByteNe0:
      std::snprintf(buf, sizeof buf,
                    "    load.1 %%gval, %%peek, %d\n"
                    "    movi %%gzero, 0\n"
                    "    cmpne %%gok, %%gval, %%gzero\n"
                    "    assert %%gok\n",
                    off);
      break;
    case GuardKind::kNone:
      throw std::logic_error("guard-insert on an unguardable vuln class");
  }
  *out += buf;
}

std::string BuildHarness(const HarnessCfg& cfg) {
  const Skeleton& sk = *cfg.sk;
  std::vector<Section> sections;
  std::ostringstream entry;
  auto imm = [](std::uint64_t v) { return std::to_string(v); };

  // --- padding preamble -----------------------------------------------------
  if (cfg.pad) {
    Section pad;
    pad.label = "padstart";
    pad.body = "    movi %padp, @gen_pad\n"
               "    movi %padn, " + imm(cfg.pad_n) + "\n"
               "    movi %padi, 0\n"
               "    movi %padacc, " + imm(cfg.pad_mix) + "\n"
               "    jmp padloop\n";
    Section padloop;
    padloop.label = "padloop";
    padloop.body = "    cmpltu %padmore, %padi, %padn\n"
                   "    br %padmore, padbody, hstart\n";
    Section padbody;
    padbody.label = "padbody";
    padbody.body = "    add %padq, %padp, %padi\n"
                   "    load.1 %padc, %padq, 0\n"
                   "    add %padacc, %padacc, %padc\n"
                   "    addi %padi, %padi, 1\n"
                   "    jmp padloop\n";
    sections.push_back(pad);
    sections.push_back(padloop);
    sections.push_back(padbody);
    entry << "    jmp padstart\n";
  } else {
    entry << "    jmp hstart\n";
  }

  const std::string after_header = cfg.hostile ? "gate" : "dstart";

  // --- header section -------------------------------------------------------
  Section hdr;
  hdr.label = "hstart";
  if (cfg.guard != nullptr) {
    // Guard-insert: one peek read covers the header, the vuln element
    // header and the guarded payload field; after validation the file
    // position rewinds to the end of the fixed header so the normal
    // dispatch path runs unchanged.
    const VulnClass& vc = *cfg.guard;
    int payload_base = FirstPayloadOff(sk);
    int peek_len = payload_base + vc.guard_off + vc.guard_width;
    hdr.body += "    movi %peekn, " + imm(peek_len) + "\n";
    hdr.body += "    alloc %peek, %peekn\n";
    hdr.body += "    read %got, %peek, %peekn\n";
    hdr.body += "    load.4 %magic, %peek, 0\n";
    hdr.body += "    movi %want, " + imm(sk.magic) + "\n";
    hdr.body += "    cmpeq %mok, %magic, %want\n";
    hdr.body += "    assert %mok\n";
    if (sk.counted) hdr.body += "    load.1 %nelem, %peek, 5\n";
    EmitGuardAsserts(vc, payload_base, &hdr.body);
    hdr.body += "    movi %hend, " + imm(sk.header_len) + "\n";
    hdr.body += "    seek %hend\n";
  } else if (cfg.outline) {
    hdr.body += "    call %hret, check_hdr()\n";
    if (sk.counted) hdr.body += "    addi %nelem, %hret, 0\n";
  } else {
    hdr.body += "    movi %hlen, " + imm(sk.header_len) + "\n";
    hdr.body += "    alloc %hbuf, %hlen\n";
    hdr.body += "    read %got, %hbuf, %hlen\n";
    hdr.body += "    load.4 %magic, %hbuf, 0\n";
    hdr.body += "    movi %want, " + imm(sk.magic) + "\n";
    hdr.body += "    cmpeq %mok, %magic, %want\n";
    hdr.body += "    assert %mok\n";
    if (sk.counted) hdr.body += "    load.1 %nelem, %hbuf, 5\n";
  }
  // Element-header scratch shared by the dispatch loop.
  if (sk.dispatch != Dispatch::kDirect) {
    hdr.body += "    movi %esz, " + imm(std::max(sk.elem_header_len, 2)) + "\n";
    hdr.body += "    alloc %ebuf, %esz\n";
  }
  if (sk.counted) hdr.body += "    movi %ei, 0\n";
  hdr.body += "    jmp " + after_header + "\n";
  sections.push_back(hdr);

  // --- symex-hostile gate ---------------------------------------------------
  if (cfg.hostile) {
    // The reserved header byte (never loaded by S, hence untainted and
    // free for the fuzzer) gates a warm-up loop whose symbolic bound
    // 16*b ∈ [2048, 4080] exceeds the θ ceiling: every ep-ward state is
    // θ-cut, the drain classifies program-dead, and only the fuzz rung
    // can flip the byte and reach the crash.
    std::string hdrreg = cfg.guard != nullptr ? "%peek" : "%hbuf";
    if (cfg.outline || cfg.guard != nullptr) {
      // outline keeps no header buffer in main; re-read the byte.
      if (cfg.outline && cfg.guard == nullptr) {
        Section gate;
        gate.label = "gate";
        gate.body = "    movi %gpos, 4\n"
                    "    seek %gpos\n"
                    "    movi %gone, 1\n"
                    "    alloc %gbuf, %gone\n"
                    "    read %gg, %gbuf, %gone\n"
                    "    load.1 %hot, %gbuf, 0\n"
                    "    movi %hback, " + imm(sk.header_len) + "\n"
                    "    seek %hback\n"
                    "    movi %hlim, 128\n"
                    "    cmpltu %hsmall, %hot, %hlim\n"
                    "    br %hsmall, coldpath, warm\n";
        sections.push_back(gate);
      } else {
        Section gate;
        gate.label = "gate";
        gate.body = "    load.1 %hot, " + hdrreg + ", 4\n"
                    "    movi %hlim, 128\n"
                    "    cmpltu %hsmall, %hot, %hlim\n"
                    "    br %hsmall, coldpath, warm\n";
        sections.push_back(gate);
      }
    } else {
      Section gate;
      gate.label = "gate";
      gate.body = "    load.1 %hot, %hbuf, 4\n"
                  "    movi %hlim, 128\n"
                  "    cmpltu %hsmall, %hot, %hlim\n"
                  "    br %hsmall, coldpath, warm\n";
      sections.push_back(gate);
    }
    Section cold;
    cold.label = "coldpath";
    cold.body = "    movi %cret, 0\n"
                "    ret %cret\n";
    Section warm;
    warm.label = "warm";
    warm.body = "    movi %wsh, 4\n"
                "    shl %wbound, %hot, %wsh\n"
                "    movi %wi, 0\n"
                "    jmp warmloop\n";
    Section warmloop;
    warmloop.label = "warmloop";
    warmloop.body = "    cmpltu %wmore, %wi, %wbound\n"
                    "    br %wmore, warmstep, dstart\n";
    Section warmstep;
    warmstep.label = "warmstep";
    warmstep.body = "    addi %wi, %wi, 1\n"
                    "    jmp warmloop\n";
    sections.push_back(cold);
    sections.push_back(warm);
    sections.push_back(warmloop);
    sections.push_back(warmstep);
  }

  // --- dispatch sections ----------------------------------------------------
  char vt[16], et[16];
  std::snprintf(vt, sizeof vt, "%u", sk.vuln_type);
  std::snprintf(et, sizeof et, "%u", sk.end_type);
  switch (sk.dispatch) {
    case Dispatch::kSeg2: {
      sections.push_back({"dstart",
                          "    movi %ehl, 3\n"
                          "    read %ge, %ebuf, %ehl\n"
                          "    cmpltu %eshort, %ge, %ehl\n"
                          "    br %eshort, fin, have\n"});
      sections.push_back({"have",
                          "    load.1 %etype, %ebuf, 0\n"
                          "    load.2 %elen, %ebuf, 1\n"
                          "    movi %tvuln, " + std::string(vt) + "\n"
                          "    cmpeq %isv, %etype, %tvuln\n"
                          "    br %isv, vuln, notv\n"});
      sections.push_back({"vuln",
                          "    movi %varg, 0\n"
                          "    call %vres, " + cfg.callee + "(%varg)\n"
                          "    jmp dstart\n"});
      sections.push_back({"notv",
                          "    movi %tend, " + std::string(et) + "\n"
                          "    cmpeq %ise, %etype, %tend\n"
                          "    br %ise, fin, skip\n"});
      sections.push_back({"skip",
                          "    tell %fpos\n"
                          "    add %fpos, %fpos, %elen\n"
                          "    seek %fpos\n"
                          "    jmp dstart\n"});
      sections.push_back({"fin", "    ret %ge\n"});
      break;
    }
    case Dispatch::kBlock1: {
      sections.push_back({"dstart",
                          "    movi %eone, 1\n"
                          "    read %ge, %ebuf, %eone\n"
                          "    cmpltu %eshort, %ge, %eone\n"
                          "    br %eshort, fin, have\n"});
      sections.push_back({"have",
                          "    load.1 %etype, %ebuf, 0\n"
                          "    movi %tvuln, " + std::string(vt) + "\n"
                          "    cmpeq %isv, %etype, %tvuln\n"
                          "    br %isv, vuln, notv\n"});
      sections.push_back({"vuln",
                          "    movi %varg, 0\n"
                          "    call %vres, " + cfg.callee + "(%varg)\n"
                          "    jmp dstart\n"});
      sections.push_back({"notv",
                          "    movi %tend, " + std::string(et) + "\n"
                          "    cmpeq %ise, %etype, %tend\n"
                          "    br %ise, fin, skip\n"});
      sections.push_back({"skip",
                          "    read %gl, %ebuf, %eone\n"
                          "    load.1 %elen, %ebuf, 0\n"
                          "    tell %fpos\n"
                          "    add %fpos, %fpos, %elen\n"
                          "    seek %fpos\n"
                          "    jmp dstart\n"});
      sections.push_back({"fin", "    ret %ge\n"});
      break;
    }
    case Dispatch::kRec1: {
      sections.push_back({"dstart",
                          "    cmpltu %emore, %ei, %nelem\n"
                          "    br %emore, elem, fin\n"});
      sections.push_back({"elem",
                          "    movi %eone, 1\n"
                          "    read %ge, %ebuf, %eone\n"
                          "    load.1 %etype, %ebuf, 0\n"
                          "    movi %tvuln, " + std::string(vt) + "\n"
                          "    cmpeq %isv, %etype, %tvuln\n"
                          "    br %isv, vuln, skip\n"});
      sections.push_back({"vuln",
                          "    movi %varg, 0\n"
                          "    call %vres, " + cfg.callee + "(%varg)\n"
                          "    addi %ei, %ei, 1\n"
                          "    jmp dstart\n"});
      sections.push_back({"skip",
                          "    read %gl, %ebuf, %eone\n"
                          "    load.1 %elen, %ebuf, 0\n"
                          "    tell %fpos\n"
                          "    add %fpos, %fpos, %elen\n"
                          "    seek %fpos\n"
                          "    addi %ei, %ei, 1\n"
                          "    jmp dstart\n"});
      sections.push_back({"fin", "    ret %ei\n"});
      break;
    }
    case Dispatch::kObj2: {
      sections.push_back({"dstart",
                          "    cmpltu %emore, %ei, %nelem\n"
                          "    br %emore, elem, fin\n"});
      sections.push_back({"elem",
                          "    movi %ehl, 3\n"
                          "    read %ge, %ebuf, %ehl\n"
                          "    load.1 %etype, %ebuf, 0\n"
                          "    load.2 %elen, %ebuf, 1\n"
                          "    movi %tvuln, " + std::string(vt) + "\n"
                          "    cmpeq %isv, %etype, %tvuln\n"
                          "    br %isv, vuln, skip\n"});
      sections.push_back({"vuln",
                          "    movi %varg, 0\n"
                          "    call %vres, " + cfg.callee + "(%varg)\n"
                          "    addi %ei, %ei, 1\n"
                          "    jmp dstart\n"});
      sections.push_back({"skip",
                          "    tell %fpos\n"
                          "    add %fpos, %fpos, %elen\n"
                          "    seek %fpos\n"
                          "    addi %ei, %ei, 1\n"
                          "    jmp dstart\n"});
      sections.push_back({"fin", "    ret %ei\n"});
      break;
    }
    case Dispatch::kDirect: {
      sections.push_back({"dstart",
                          "    movi %varg, 0\n"
                          "    call %vres, " + cfg.callee + "(%varg)\n"
                          "    jmp fin\n"});
      sections.push_back({"fin", "    ret %vres\n"});
      break;
    }
  }

  // --- reorder-blocks -------------------------------------------------------
  // Control flow is fully explicit, so any permutation that keeps the
  // entry target first-reachable is legal; a seeded Fisher–Yates over
  // every section after the first suffices.
  if (cfg.reorder && cfg.reorder_rng != nullptr && sections.size() > 2) {
    for (std::size_t i = sections.size() - 1; i > 1; --i) {
      std::size_t j = 1 + static_cast<std::size_t>(
                              cfg.reorder_rng->Below(static_cast<std::uint64_t>(i)));
      std::swap(sections[i], sections[j]);
    }
  }

  // --- assemble text --------------------------------------------------------
  std::ostringstream out;
  out << "  program \"" << cfg.program_name << "\"\n";
  if (cfg.pad) {
    out << "  data gen_pad:\n    .u8";
    for (std::uint8_t b : cfg.pad_data) out << ' ' << static_cast<unsigned>(b);
    out << "\n";
  }
  if (cfg.outline) {
    out << "  func check_hdr()\n";
    out << "    movi %hlen, " << sk.header_len << "\n";
    out << "    alloc %hbuf, %hlen\n";
    out << "    read %got, %hbuf, %hlen\n";
    out << "    load.4 %magic, %hbuf, 0\n";
    out << "    movi %want, " << sk.magic << "\n";
    out << "    cmpeq %mok, %magic, %want\n";
    out << "    assert %mok\n";
    if (sk.counted) {
      out << "    load.1 %cnt, %hbuf, 5\n";
      out << "    ret %cnt\n";
    } else {
      out << "    ret %got\n";
    }
    out << "\n";
  }
  out << "  func main()\n";
  out << entry.str();
  for (const Section& s : sections) {
    out << "  " << s.label << ":\n" << s.body;
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// rename-locals: token-aware register renaming. Renames every %register
// identifier in `text` to a fresh name (old name + '_' + hex nibble) —
// whole-token replacement, so prefix-sharing names can never collide.
// The IR is unchanged (registers allocate by first use), which is
// exactly what makes the result a fingerprint-identical clone.
// ---------------------------------------------------------------------------

bool IdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

std::string RenameRegisters(const std::string& text, Rng& rng) {
  // Collect identifiers in order of first appearance (deterministic).
  std::vector<std::string> order;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') continue;
    std::size_t j = i + 1;
    while (j < text.size() && IdentChar(text[j])) ++j;
    if (j == i + 1) continue;
    std::string ident = text.substr(i + 1, j - i - 1);
    if (seen.insert(ident).second) order.push_back(ident);
    i = j - 1;
  }
  std::map<std::string, std::string> renames;
  const char* hex = "0123456789abcdef";
  for (const std::string& ident : order)
    renames[ident] = ident + "_" + hex[rng.Below(16)];
  std::string out;
  out.reserve(text.size() + order.size() * 2);
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out.push_back(text[i]);
      continue;
    }
    std::size_t j = i + 1;
    while (j < text.size() && IdentChar(text[j])) ++j;
    std::string ident = text.substr(i + 1, j - i - 1);
    out.push_back('%');
    auto it = renames.find(ident);
    out += it != renames.end() ? it->second : ident;
    i = j - 1;
  }
  return out;
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

// ---------------------------------------------------------------------------
// Generation-time self-checks.
// ---------------------------------------------------------------------------

[[noreturn]] void GenFail(int ordinal, const std::string& what) {
  throw std::logic_error("gen self-check failed (ordinal " +
                         std::to_string(ordinal) + "): " + what);
}

vm::ExecResult RunOn(const vm::Program& p, const Bytes& input) {
  vm::ExecOptions opts;
  return vm::RunProgram(p, input, opts);
}

void CheckCrashInArea(const vm::Program& p, const Bytes& input,
                      vm::TrapKind want, const std::string& area_name,
                      int ordinal, const char* which) {
  vm::ExecResult r = RunOn(p, input);
  if (r.trap != want)
    GenFail(ordinal, std::string(which) + " trapped " +
                         std::string(vm::TrapName(r.trap)) + ", wanted " +
                         std::string(vm::TrapName(want)));
  if (r.backtrace.empty()) GenFail(ordinal, std::string(which) + ": empty backtrace");
  vm::FuncId area = p.FindFunction(area_name);
  bool on_stack = false;
  for (const vm::BacktraceEntry& f : r.backtrace)
    if (f.fn == area) on_stack = true;
  if (!on_stack)
    GenFail(ordinal, std::string(which) + ": " + area_name + " not on backtrace");
}

// Clone recovery must find exactly the shared area (possibly renamed) and
// never the harness functions — this is the loop-closing check.
void CheckCloneRecovery(const vm::Program& s, const vm::Program& t,
                        const std::string& t_callee, int ordinal) {
  std::vector<clone::CloneMatch> matches = clone::DetectClones(s, t);
  bool found = false;
  for (const clone::CloneMatch& m : matches) {
    if (m.name_in_s == "gen_area" && m.name_in_t == t_callee) {
      found = true;
      continue;
    }
    GenFail(ordinal, "clone detector matched a harness function: " +
                         m.name_in_s + " -> " + m.name_in_t);
  }
  if (!found)
    GenFail(ordinal, "clone detector failed to recover gen_area -> " + t_callee);
}

// ---------------------------------------------------------------------------
// Pair assembly.
// ---------------------------------------------------------------------------

const char* kMutationNames[] = {
    "rename-locals", "reorder-blocks", "outline-helper", "inline-helper",
    "guard-insert",  "symex-hostile",  "rename-clone",
};

const char* kCloneNames[] = {"decode_area", "parse_region", "scan_payload",
                             "read_chunk"};

std::uint64_t Mix(std::uint64_t seed, std::uint64_t ordinal) {
  // SplitMix-style avalanche over (seed, ordinal).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (ordinal + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct PairPlan {
  const Skeleton* sk;
  const VulnClass* vc;
  int mutation;  // index into kMutationNames
  int lead_count;
};

// Deterministically plans ordinal's taxonomy. Chains (hops at
// o%16==14/15) restrict the mutation to the always-triggering transforms.
PairPlan PlanPair(int ordinal, Rng& rng, int* chain_hop) {
  PairPlan plan{};
  *chain_hop = 0;
  int slot = ordinal % 16;
  if (slot == 14) *chain_hop = 1;
  if (slot == 15) *chain_hop = 2;
  if (*chain_hop != 0) {
    // Triggering transforms only; hop 1 and hop 2 must differ so the two
    // harnesses can never fingerprint-match (see BuildChainHop).
    static const int kChainMut[] = {0, 1, 2};  // rename/reorder/outline
    plan.mutation = kChainMut[rng.Below(3)];
  } else {
    plan.mutation = ordinal % 7;
  }
  plan.sk = &kSkeletons[rng.Below(kSkeletonCount)];
  // reorder-blocks needs a multi-section dispatch; kDirect has none.
  if (plan.mutation == 1 && plan.sk->dispatch == Dispatch::kDirect)
    plan.sk = &kSkeletons[0];
  // guard-insert is only sound on the direct skeleton: a dispatch loop
  // leaves the solver free to restructure the container (lead element
  // first) so the payload lands past the guarded offset — symex finds
  // that bypass and reforms a crashing poc'. kDirect pins the payload at
  // the guarded position, making NotTriggerable a true statement.
  if (plan.mutation == 4) plan.sk = &kSkeletons[kSkeletonCount - 1];
  // Restrict vuln class to what the mutation supports.
  std::vector<const VulnClass*> eligible;
  for (const VulnClass& vc : kVulnClasses) {
    if (plan.mutation == 4 && !vc.guardable) continue;
    if (plan.mutation == 5 && !vc.hostile_ok) continue;
    eligible.push_back(&vc);
  }
  plan.vc = eligible[rng.Below(eligible.size())];
  // Benign lead elements only where the payload position is free to
  // float (plain triggering transforms).
  bool leads_ok = plan.mutation != 4 && plan.mutation != 5 &&
                  plan.sk->dispatch != Dispatch::kDirect;
  plan.lead_count = leads_ok ? static_cast<int>(rng.Below(3)) : 0;
  return plan;
}

std::string VersionTag(std::uint64_t seed, int ordinal, const char* stage) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%d-%08llx", stage, ordinal,
                static_cast<unsigned long long>(seed & 0xffffffffULL));
  return buf;
}

GeneratedPair BuildOnePair(std::uint64_t seed, int ordinal);

// The T→U hop: re-derives the previous ordinal's pair and grows U from
// its T with a second (different) triggering transform.
GeneratedPair BuildChainHop2(std::uint64_t seed, int ordinal) {
  GeneratedPair hop1 = BuildOnePair(seed, ordinal - 1);
  Rng rng(Mix(seed, static_cast<std::uint64_t>(ordinal)));
  Rng hop1_rng(Mix(seed, static_cast<std::uint64_t>(ordinal - 1)));
  int hop1_chain = 0;
  PairPlan hop1_plan = PlanPair(ordinal - 1, hop1_rng, &hop1_chain);
  if (hop1_chain != 1)
    throw std::logic_error("chain hop 2 must follow a hop-1 ordinal");

  const Skeleton& sk = *hop1_plan.sk;
  const VulnClass& vc = *hop1_plan.vc;

  // Pick a triggering transform different from hop 1's (two identical
  // transforms could make T's and U's harness helpers fingerprint-match).
  std::vector<int> eligible;
  for (int m : {0, 1, 2}) {
    if (m == hop1_plan.mutation) continue;
    if (m == 1 && sk.dispatch == Dispatch::kDirect) continue;
    eligible.push_back(m);
  }
  int mutation = eligible[rng.Below(eligible.size())];

  HarnessCfg ucfg;
  ucfg.sk = &sk;
  ucfg.program_name = "gen" + std::to_string(ordinal) + "u";
  ucfg.pad = true;
  ucfg.pad_n = 2 + static_cast<int>(rng.Below(4));
  ucfg.pad_mix = 0x20000u + static_cast<std::uint32_t>(ordinal) * 2u + 1u;
  for (int i = 0; i < ucfg.pad_n; ++i)
    ucfg.pad_data.push_back(static_cast<std::uint8_t>(rng.Below(256)));
  Rng reorder_rng(Mix(seed, static_cast<std::uint64_t>(ordinal)) ^ 0x5aa5);
  ucfg.outline = mutation == 2;
  ucfg.reorder = mutation == 1;
  ucfg.reorder_rng = &reorder_rng;

  std::string u_text = std::string(vc.body) + "\n" + BuildHarness(ucfg);
  if (mutation == 0) u_text = RenameRegisters(u_text, rng);
  vm::Program u = vm::Assemble(u_text);

  GeneratedPair g;
  g.pair.idx = kGenBase + ordinal;
  g.pair.s_name = hop1.pair.t_name;
  g.pair.s_version = hop1.pair.t_version;
  g.pair.t_name = hop1.pair.t_name + "+" + kMutationNames[mutation];
  g.pair.t_version = VersionTag(seed, ordinal, "u");
  g.pair.vuln_id = hop1.pair.vuln_id;
  g.pair.cwe = vc.cwe;
  g.pair.expected = corpus::ExpectedResult::kTypeI;
  g.pair.expected_trap = vc.trap;
  g.pair.s = hop1.pair.t;
  g.pair.t = std::move(u);
  g.pair.poc = hop1.pair.poc;
  g.pair.shared_functions = {"gen_area"};
  g.expected_verdict = core::Verdict::kTriggered;
  g.skeleton = sk.key;
  g.vuln_class = vc.key;
  g.mutation = kMutationNames[mutation];
  g.chain_hop = 2;

  CheckCrashInArea(g.pair.s, g.pair.poc, vc.trap, "gen_area", ordinal,
                   "chain S(=T1)(poc)");
  CheckCrashInArea(g.pair.t, g.pair.poc, vc.trap, "gen_area", ordinal,
                   "chain U(poc)");
  CheckCloneRecovery(g.pair.s, g.pair.t, "gen_area", ordinal);
  return g;
}

GeneratedPair BuildOnePair(std::uint64_t seed, int ordinal) {
  if (ordinal % 16 == 15) return BuildChainHop2(seed, ordinal);
  Rng rng(Mix(seed, static_cast<std::uint64_t>(ordinal)));
  int chain_hop = 0;
  PairPlan plan = PlanPair(ordinal, rng, &chain_hop);
  const Skeleton& sk = *plan.sk;
  const VulnClass& vc = *plan.vc;
  int mutation = plan.mutation;

  Bytes trigger = TriggerPayload(vc, rng);
  Bytes benign = BenignPayload(vc, rng);
  std::vector<Bytes> leads;
  for (int i = 0; i < plan.lead_count; ++i) {
    Bytes filler;
    std::uint64_t n = 1 + rng.Below(12);
    for (std::uint64_t j = 0; j < n; ++j)
      filler.push_back(static_cast<std::uint8_t>(rng.Below(256)));
    leads.push_back(std::move(filler));
  }
  Bytes poc = BuildContainer(sk, leads, trigger);
  Bytes benign_poc = BuildContainer(sk, leads, benign);

  // --- S --------------------------------------------------------------------
  HarnessCfg scfg;
  scfg.sk = &sk;
  scfg.program_name = "gen" + std::to_string(ordinal) + "s";
  scfg.outline = mutation == 3;  // inline-helper: S carries the helper
  std::string s_text = std::string(vc.body) + "\n" + BuildHarness(scfg);
  vm::Program s = vm::Assemble(s_text);

  // --- T --------------------------------------------------------------------
  std::string t_callee = "gen_area";
  HarnessCfg tcfg;
  tcfg.sk = &sk;
  tcfg.program_name = "gen" + std::to_string(ordinal) + "t";
  tcfg.pad = true;
  tcfg.pad_n = 2 + static_cast<int>(rng.Below(4));
  tcfg.pad_mix = 0x10000u + static_cast<std::uint32_t>(ordinal) * 2u;
  for (int i = 0; i < tcfg.pad_n; ++i)
    tcfg.pad_data.push_back(static_cast<std::uint8_t>(rng.Below(256)));
  Rng reorder_rng(Mix(seed, static_cast<std::uint64_t>(ordinal)) ^ 0xa55a);
  tcfg.outline = mutation == 2;
  tcfg.reorder = mutation == 1;
  tcfg.reorder_rng = &reorder_rng;
  tcfg.hostile = mutation == 5;
  tcfg.guard = mutation == 4 ? &vc : nullptr;
  if (mutation == 6) {
    t_callee = kCloneNames[rng.Below(4)];
    tcfg.callee = t_callee;
  }
  std::string t_vuln_body = std::string(vc.body);
  if (mutation == 6) t_vuln_body = ReplaceAll(t_vuln_body, "gen_area", t_callee);
  std::string t_text = t_vuln_body + "\n" + BuildHarness(tcfg);
  if (mutation == 0) t_text = RenameRegisters(t_text, rng);
  vm::Program t = vm::Assemble(t_text);

  // --- pair -----------------------------------------------------------------
  GeneratedPair g;
  g.pair.idx = kGenBase + ordinal;
  g.pair.s_name = std::string("gen/") + sk.key + "-" + vc.key;
  g.pair.s_version = VersionTag(seed, ordinal, "s");
  g.pair.t_name = g.pair.s_name + "+" + kMutationNames[mutation];
  g.pair.t_version = VersionTag(seed, ordinal, "t");
  g.pair.vuln_id = "GEN-" + std::to_string(seed & 0xffffffffULL) + "-" +
                   std::to_string(ordinal);
  g.pair.cwe = vc.cwe;
  g.pair.expected_trap = vc.trap;
  g.pair.s = std::move(s);
  g.pair.t = std::move(t);
  g.pair.poc = std::move(poc);
  g.pair.shared_functions = {"gen_area"};
  if (mutation == 6) g.pair.t_names = {{"gen_area", t_callee}};
  g.skeleton = sk.key;
  g.vuln_class = vc.key;
  g.mutation = kMutationNames[mutation];
  g.chain_hop = chain_hop;
  if (mutation == 4) {
    g.expected_verdict = core::Verdict::kNotTriggerable;
    g.pair.expected = corpus::ExpectedResult::kTypeIII;
  } else if (mutation == 5) {
    g.expected_verdict = core::Verdict::kTriggeredByFuzzing;
    g.needs_fuzz = true;
    g.pair.expected = corpus::ExpectedResult::kTypeI;
  } else {
    g.expected_verdict = core::Verdict::kTriggered;
    g.pair.expected = corpus::ExpectedResult::kTypeI;
  }

  // --- self-checks ----------------------------------------------------------
  CheckCrashInArea(g.pair.s, g.pair.poc, vc.trap, "gen_area", ordinal, "S(poc)");
  {
    vm::ExecResult rb = RunOn(g.pair.s, benign_poc);
    if (rb.trap != vm::TrapKind::kNone)
      GenFail(ordinal, "S(benign) trapped " + std::string(vm::TrapName(rb.trap)));
  }
  if (mutation == 4) {
    vm::ExecResult rt = RunOn(g.pair.t, g.pair.poc);
    if (rt.trap != vm::TrapKind::kAbort)
      GenFail(ordinal, "guard T(poc) trapped " +
                           std::string(vm::TrapName(rt.trap)) + ", wanted abort");
    vm::ExecResult rtb = RunOn(g.pair.t, benign_poc);
    if (rtb.trap != vm::TrapKind::kNone)
      GenFail(ordinal, "guard T(benign) trapped " +
                           std::string(vm::TrapName(rtb.trap)));
  } else if (mutation == 5) {
    vm::ExecResult rt = RunOn(g.pair.t, g.pair.poc);
    if (rt.trap != vm::TrapKind::kNone)
      GenFail(ordinal, "hostile T(poc) should exit cleanly, trapped " +
                           std::string(vm::TrapName(rt.trap)));
    Bytes hot = g.pair.poc;
    hot[4] = 0x80;  // the untainted reserved byte the fuzzer must find
    CheckCrashInArea(g.pair.t, hot, vc.trap, t_callee, ordinal, "hostile T(hot)");
  } else {
    CheckCrashInArea(g.pair.t, g.pair.poc, vc.trap, t_callee, ordinal, "T(poc)");
  }
  CheckCloneRecovery(g.pair.s, g.pair.t, t_callee, ordinal);
  return g;
}

std::uint64_t Fnv1a64(ByteView data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t HashString(const std::string& s) {
  return Fnv1a64(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()),
                          s.size()));
}

const char* VerdictLabel(core::Verdict v) {
  switch (v) {
    case core::Verdict::kTriggered: return "Triggered";
    case core::Verdict::kNotTriggerable: return "NotTriggerable";
    case core::Verdict::kTriggeredByFuzzing: return "TriggeredByFuzzing";
    case core::Verdict::kFailure: return "Failure";
  }
  return "?";
}

}  // namespace

GeneratedPair BuildGeneratedPair(std::uint64_t seed, int ordinal) {
  if (ordinal < 0) throw std::out_of_range("generator ordinal must be >= 0");
  return BuildOnePair(seed, ordinal);
}

std::vector<GeneratedPair> GenerateCorpus(std::uint64_t seed, int count) {
  std::vector<GeneratedPair> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(BuildOnePair(seed, i));
  return out;
}

GeneratedPair BuildHogPair(std::uint64_t seed) {
  Rng rng(Mix(seed, 0x686f67ULL));                  // "hog"
  const Skeleton& sk = kSkeletons[kSkeletonCount - 1];  // mj2k (sound guard)
  const VulnClass& vc = kVulnClasses[0];              // oob-write
  Bytes trigger = TriggerPayload(vc, rng);
  Bytes poc = BuildContainer(sk, {}, trigger);

  HarnessCfg scfg;
  scfg.sk = &sk;
  scfg.program_name = "genhogs";
  vm::Program s = vm::Assemble(std::string(vc.body) + "\n" + BuildHarness(scfg));

  // T is guard-protected AND symex-hostile: symex goes program-dead at
  // the warm loop, the fuzz rung stages, and the sound guard means no
  // candidate ever crashes — the campaign runs its full (huge) budget.
  HarnessCfg tcfg;
  tcfg.sk = &sk;
  tcfg.program_name = "genhogt";
  tcfg.pad = true;
  tcfg.pad_n = 3;
  tcfg.pad_mix = 0x30000u;
  for (int i = 0; i < tcfg.pad_n; ++i)
    tcfg.pad_data.push_back(static_cast<std::uint8_t>(rng.Below(256)));
  tcfg.hostile = true;
  tcfg.guard = &vc;
  vm::Program t = vm::Assemble(std::string(vc.body) + "\n" + BuildHarness(tcfg));

  GeneratedPair g;
  g.pair.idx = kHogIdx;
  g.pair.s_name = "gen/hog";
  g.pair.s_version = VersionTag(seed, 0, "s");
  g.pair.t_name = "gen/hog+guard+hostile";
  g.pair.t_version = VersionTag(seed, 0, "t");
  g.pair.vuln_id = "GEN-HOG";
  g.pair.cwe = vc.cwe;
  g.pair.expected = corpus::ExpectedResult::kTypeIII;
  g.pair.expected_trap = vc.trap;
  g.pair.s = std::move(s);
  g.pair.t = std::move(t);
  g.pair.poc = std::move(poc);
  g.pair.shared_functions = {"gen_area"};
  g.expected_verdict = core::Verdict::kNotTriggerable;
  g.needs_fuzz = false;
  g.skeleton = sk.key;
  g.vuln_class = vc.key;
  g.mutation = "guard+hostile";

  CheckCrashInArea(g.pair.s, g.pair.poc, vc.trap, "gen_area", kHogIdx, "S(poc)");
  vm::ExecResult rt = RunOn(g.pair.t, g.pair.poc);
  if (rt.trap != vm::TrapKind::kAbort)
    GenFail(kHogIdx, "hog T(poc) trapped " + std::string(vm::TrapName(rt.trap)));
  CheckCloneRecovery(g.pair.s, g.pair.t, "gen_area", kHogIdx);
  return g;
}

corpus::Pair LoadGeneratedPair(std::uint64_t seed, int idx) {
  if (idx == kHogIdx) return BuildHogPair(seed).pair;
  if (idx >= kGenBase) return BuildGeneratedPair(seed, idx - kGenBase).pair;
  throw std::out_of_range("not a generated pair index: " + std::to_string(idx));
}

std::string DescribeGeneratedPair(const GeneratedPair& g) {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "pair %d %s %s %s hop=%d expect=%s%s s=%016llx t=%016llx poc=%016llx "
      "len=%zu",
      g.pair.idx, g.skeleton.c_str(), g.vuln_class.c_str(), g.mutation.c_str(),
      g.chain_hop, VerdictLabel(g.expected_verdict), g.needs_fuzz ? "(fuzz)" : "",
      static_cast<unsigned long long>(HashString(vm::Disassemble(g.pair.s))),
      static_cast<unsigned long long>(HashString(vm::Disassemble(g.pair.t))),
      static_cast<unsigned long long>(Fnv1a64(g.pair.poc)), g.pair.poc.size());
  return buf;
}

}  // namespace octopocs::gen
