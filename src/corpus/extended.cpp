#include "corpus/extended.h"

#include <stdexcept>

#include "corpus/shared.h"
#include "formats/formats.h"
#include "vm/asm.h"

namespace octopocs::corpus {

namespace {

std::string ReplaceAll(std::string text, std::string_view from,
                       std::string_view to) {
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

// -- Pair 16: double wrapping ------------------------------------------------

// S: a bare-codestream consumer (the opj_dump shape).
const char* kBareJ2kMain = R"(
  program "opj_dump"
  func main()
    movi %zero, 0
    call %v, mj2k_decode(%zero)
    ret %v
)";

// T: a document browser reading an MBOX archive whose document entries
// are MPDF containers whose image objects are MJ2K streams.
// MBOX: "MBOX" [nfile:1] then per file [ftype:1][len:2][payload].
const char* kDocBrowserMain = R"(
  program "docbrowser"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n            ; "MBOX" + nfile
    load.4 %m, %hdr, 0
    movi %want, 0x584f424d         ; "MBOX"
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %nfile, %hdr, 4
    movi %fsz, 3
    alloc %fhdr, %fsz
    movi %i, 0
  fileloop:
    cmpltu %more, %i, %nfile
    br %more, file, done
  file:
    read %g2, %fhdr, %fsz          ; [ftype:1][len:2]
    load.1 %ftype, %fhdr, 0
    load.2 %flen, %fhdr, 1
    movi %tdoc, 2
    cmpeq %isdoc, %ftype, %tdoc
    br %isdoc, document, notdoc
  document:
    call %v, parse_pdf(%flen)
    addi %i, %i, 1
    jmp fileloop
  notdoc:
    tell %pos
    add %pos, %pos, %flen
    seek %pos
    addi %i, %i, 1
    jmp fileloop
  done:
    ret %i
  func parse_pdf(len)
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n            ; "%PDF" + nobj
    load.4 %m, %hdr, 0
    movi %want, 0x46445025
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %nobj, %hdr, 4
    movi %osz, 4
    alloc %obuf, %osz
    movi %i, 0
  objloop:
    cmpltu %more, %i, %nobj
    br %more, obj, done
  obj:
    read %g2, %obuf, %osz          ; [id][type][olen:2]
    load.1 %type, %obuf, 1
    load.2 %olen, %obuf, 2
    movi %ti, 2
    cmpeq %isi, %type, %ti
    br %isi, image, noti
  image:
    movi %zero, 0
    call %v, mj2k_decode(%zero)
    addi %i, %i, 1
    jmp objloop
  noti:
    movi %tz, 0
    cmpeq %isz, %type, %tz
    br %isz, done, skip
  skip:
    tell %pos
    add %pos, %pos, %olen
    seek %pos
    addi %i, %i, 1
    jmp objloop
  done:
    ret %i
)";

// -- Pair 17: renamed clone --------------------------------------------------

// S: a minimal gif reader (no palette; the shared reader does the rest).
const char* kGifReadMain = R"(
  program "gifread"
  func main()
    movi %hn, 26
    alloc %hdr, %hn
    read %got, %hdr, %hn           ; "GIF"+version+dims+palette
    load.1 %g, %hdr, 0
    movi %cg, 'G'
    cmpeq %okg, %g, %cg
    assert %okg
    movi %one, 1
    alloc %tbuf, %one
  blockloop:
    read %g3, %tbuf, %one
    cmpltu %short, %g3, %one
    br %short, done, have
  have:
    load.1 %t, %tbuf, 0
    movi %ti, 0x2c
    cmpeq %isi, %t, %ti
    br %isi, image, noti
  image:
    movi %zero, 0
    call %v, gif_read_image(%zero)
    jmp blockloop
  noti:
    movi %tt, 0x3b
    cmpeq %ist, %t, %tt
    br %ist, done, bad
  bad:
    trap
  done:
    ret %g3
)";

// T: "pngify" — the clone was renamed to read_raster_data and a strict
// version check was added. The harness below calls the renamed clone;
// the clone body itself is kSharedGifReadImage with the name rewritten
// (see BuildExtendedPair).
const char* kPngifyMain = R"(
  program "pngify"
  func main()
    movi %hn, 26
    alloc %hdr, %hn
    read %got, %hdr, %hn           ; header incl. the 16-byte palette
    load.1 %g, %hdr, 0
    movi %cg, 'G'
    cmpeq %okg, %g, %cg
    assert %okg
    load.1 %v0, %hdr, 3
    movi %c8, '8'
    cmpeq %ok0, %v0, %c8
    assert %ok0
    load.1 %v2, %hdr, 5
    movi %ca, 'a'
    cmpeq %ok2, %v2, %ca
    assert %ok2                    ; strict trailing version byte
    movi %one, 1
    alloc %tbuf, %one
  blockloop:
    read %g3, %tbuf, %one
    cmpltu %short, %g3, %one
    br %short, done, have
  have:
    load.1 %t, %tbuf, 0
    movi %ti, 0x2c
    cmpeq %isi, %t, %ti
    br %isi, image, noti
  image:
    movi %zero, 0
    call %v, read_raster_data(%zero)
    jmp blockloop
  noti:
    movi %tt, 0x3b
    cmpeq %ist, %t, %tt
    br %ist, done, bad
  bad:
    trap
  done:
    ret %g3
)";

// -- Pair 18: three ep encounters --------------------------------------------

const char* kStreamToolMain = R"(
  program "avconv-batch"
  func main()
    movi %n, 4
    alloc %magic, %n
    read %got, %magic, %n
    load.4 %m, %magic, 0
    movi %want, 0x47504a4d
    cmpeq %ok, %m, %want
    assert %ok
    movi %one, 1
    alloc %tbuf, %one
  chunkloop:
    read %g2, %tbuf, %one
    cmpltu %short, %g2, %one
    br %short, done, have
  have:
    load.1 %t, %tbuf, 0
    movi %tc, 0xc0
    cmpeq %isc, %t, %tc
    br %isc, chunk, notc
  chunk:
    movi %zero, 0
    call %v, stream_copy(%zero)
    jmp chunkloop
  notc:
    movi %te, 0xd9
    cmpeq %ise, %t, %te
    br %ise, done, bad
  bad:
    trap
  done:
    ret %g2
)";

const char* kObsMain = R"(
  program "obs-studio"
  data obs_presets:
    .u8 2 4 6
  func main()
    movi %p, @obs_presets
    movi %i, 0
    movi %np, 3
    movi %acc, 0
  presets:
    cmpltu %more, %i, %np
    br %more, loadp, ready
  loadp:
    add %q, %p, %i
    load.1 %c, %q, 0
    add %acc, %acc, %c
    addi %i, %i, 1
    jmp presets
  ready:
    movi %n, 4
    alloc %magic, %n
    read %got, %magic, %n
    load.4 %m, %magic, 0
    movi %want, 0x47504a4d
    cmpeq %ok, %m, %want
    assert %ok
    movi %one, 1
    alloc %tbuf, %one
  chunkloop:
    read %g2, %tbuf, %one
    cmpltu %short, %g2, %one
    br %short, done, have
  have:
    load.1 %t, %tbuf, 0
    movi %tc, 0xc0
    cmpeq %isc, %t, %tc
    br %isc, chunk, notc
  chunk:
    movi %zero, 0
    call %v, stream_copy(%zero)
    jmp chunkloop
  notc:
    movi %te, 0xd9
    cmpeq %ise, %t, %te
    br %ise, done, bad
  bad:
    trap
  done:
    ret %g2
)";

// -- Pair 19: use-after-free -------------------------------------------------

const char* kRecToolMain = R"(
  program "rectool"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n            ; "REC0" + nrec
    load.4 %m, %hdr, 0
    movi %want, 0x30434552         ; "REC0"
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %nrec, %hdr, 4
    movi %ssz, 4
    alloc %scratch, %ssz
    movi %i, 0
  recloop:
    cmpltu %more, %i, %nrec
    br %more, rec, done
  rec:
    call %v, rec_process(%scratch)
    addi %i, %i, 1
    jmp recloop
  done:
    ret %i
)";

const char* kRecToolNgMain = R"(
  program "rectool-ng"
  data ng_banner:
    .str "ng"
  func main()
    movi %bp, @ng_banner
    load.1 %b0, %bp, 0
    load.1 %b1, %bp, 1
    add %sig, %b0, %b1
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n
    load.4 %m, %hdr, 0
    movi %want, 0x30434552
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %nrec, %hdr, 4
    movi %ssz, 4
    alloc %scratch, %ssz
    movi %i, 0
  recloop:
    cmpltu %more, %i, %nrec
    br %more, rec, done
  rec:
    call %v, rec_process(%scratch)
    addi %i, %i, 1
    jmp recloop
  done:
    ret %i
)";

// -- Pair 21: mmap input channel ---------------------------------------------

const char* kExiftoolMain = R"(
  program "exiftool"
  func main()
    mmap %base
    load.4 %m, %base, 0
    movi %want, 0x46495845         ; "EXIF"
    cmpeq %ok, %m, %want
    assert %ok
    call %v, exif_walk(%base)
    ret %v
)";

const char* kThumbcacheMain = R"(
  program "thumbcache"
  data tc_config:
    .u8 9 9 9
  func main()
    movi %cp, @tc_config
    load.1 %c0, %cp, 0
    load.1 %c1, %cp, 1
    add %cfg, %c0, %c1
    mmap %base
    load.4 %m, %base, 0
    movi %want, 0x46495845
    cmpeq %ok, %m, %want
    assert %ok
    call %v, exif_walk(%base)
    ret %v
)";

// -- Pair 20: divide-by-zero, patched in T -----------------------------------

const char* kThumbnailerMain = R"(
  program "thumbnailer"
  func main()
    movi %n, 4
    alloc %magic, %n
    read %got, %magic, %n
    load.4 %m, %magic, 0
    movi %want, 0x314d4854         ; "THM1"
    cmpeq %ok, %m, %want
    assert %ok
    movi %zero, 0
    call %v, img_scale(%zero)
    ret %v
)";

const char* kThumbnailerHardenedMain = R"(
  program "thumbnailer-hardened"
  func main()
    movi %n, 7
    alloc %peek, %n
    read %got, %peek, %n           ; magic + [w:2][den:1]
    load.4 %m, %peek, 0
    movi %want, 0x314d4854
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %den, %peek, 6
    movi %zero, 0
    cmpne %okd, %den, %zero
    assert %okd                    ; the patch: reject a zero divisor
    movi %four, 4
    seek %four
    call %v, img_scale(%zero)
    ret %v
)";

Bytes TripleChunkPoc() {
  return formats::WriteMjpg({{formats::kMjpgStreamChunk, Bytes(8, 0x21)},
                             {formats::kMjpgStreamChunk, Bytes(4, 0x22)},
                             {formats::kMjpgStreamChunk, Bytes(48, 0xCC)},
                             {formats::kMjpgEnd, {}}});
}

Bytes UafPoc() {
  Bytes out;
  AppendStr(out, "REC0");
  out.push_back(3);  // nrec
  out.push_back(0x01);
  out.push_back(5);     // data record (uses scratch: fine)
  out.push_back(0xFE);
  out.push_back(0);     // reset record (frees scratch)
  out.push_back(0x01);
  out.push_back(7);     // data record (use-after-free)
  return out;
}

Bytes ExifPoc() {
  Bytes out;
  AppendStr(out, "EXIF");
  out.push_back(2);  // entry count
  out.push_back(0x10);
  AppendLe(out, 3, 2);      // benign entry
  out.push_back(0x77);
  AppendLe(out, 0x90, 2);   // vulnerable tag, index 0x90 >= 16
  return out;
}

Bytes DivZeroPoc() {
  Bytes out;
  AppendStr(out, "THM1");
  AppendLe(out, 0x0040, 2);  // w
  out.push_back(0);          // den == 0: the CWE-369 trigger
  return out;
}

// Extended pair 22, S side: reads "TAGS" + [count:2] but ignores the
// count entirely — tag_store streams until a short read. Because S
// never loads the count, P1 cannot taint those two bytes, so the
// fuzz-fallback rung is free to mutate them while the entry bytes
// (the actual crash primitives) stay pinned.
const char* kTagToolMain = R"(
  program "tagtool"
  func main()
    movi %six, 6
    alloc %hdr, %six
    read %got, %hdr, %six          ; "TAGS" + [count:2] (count unused)
    load.4 %m, %hdr, 0
    movi %want, 0x53474154         ; "TAGS"
    cmpeq %ok, %m, %want
    assert %ok
    call %v, tag_store()
    ret %v
)";

// Extended pair 22, T side: trusts the count. Small caches (count
// high byte < 128) short-circuit before ℓ; large ones spin a warm-up
// loop of 16·nh ∈ [2048, 4080] iterations — a *symbolic* bound —
// before entering tag_store. Directed symex cannot cross the loop:
// every state either exits pre-ep or dies at the loop cap (θ = 120,
// and the adaptive ceiling of 1920, are below the minimum bound of
// 2048), so the pair is undecidable for P2/P3 while remaining
// concretely triggerable by any input with the count's top bit set.
// The gate and the bound derive from a single input byte so every
// branch query stays one-variable — symex dies fast, not by burning
// the solver's step budget on multi-byte inequalities.
const char* kTagCacheMain = R"(
  program "tagcache"
  func main()
    movi %six, 6
    alloc %hdr, %six
    read %got, %hdr, %six
    load.4 %m, %hdr, 0
    movi %want, 0x53474154         ; "TAGS"
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %nh, %hdr, 5            ; count high byte
    movi %lim, 128
    cmpltu %small, %nh, %lim
    br %small, benign, warm
  benign:
    movi %zero, 0
    ret %zero                      ; small caches are served statically
  warm:
    movi %four, 4
    shl %bound, %nh, %four         ; 16 warm-up rounds per cached tag
    movi %i, 0
  warmloop:
    cmpltu %more, %i, %bound
    br %more, step, enter
  step:
    addi %i, %i, 1
    jmp warmloop
  enter:
    call %v, tag_store()
    ret %v
)";

Bytes TagPoc() {
  Bytes out;
  AppendStr(out, "TAGS");
  AppendLe(out, 2, 2);     // cache count: S ignores it, T trusts it
  out.push_back(0x5A);     // the vulnerable tag
  AppendLe(out, 0x90, 2);  // table index 0x90 >= 16: the OOB store
  return out;
}

}  // namespace

Pair BuildExtendedPair(int idx) {
  using vm::TrapKind;
  Pair p;
  switch (idx) {
    case 16:
      p = {idx, "opj_dump", "2.1.1", "docbrowser", "0.9",
           "ghostscript-BZ697463 (double wrap)", "No-CWE",
           ExpectedResult::kTypeII, TrapKind::kNullDeref,
           vm::AssembleParts({kSharedMj2kDecoder, kBareJ2kMain}),
           vm::AssembleParts({kSharedMj2kDecoder, kDocBrowserMain}),
           formats::Mj2kZeroComponentPoc(),
           {"mj2k_decode", "mj2k_components"}, {}};
      break;
    case 17: {
      const std::string renamed = ReplaceAll(
          kSharedGifReadImage, "gif_read_image", "read_raster_data");
      p = {idx, "gifread", "1.0", "pngify", "0.3",
           "CVE-2011-2896 (renamed clone)", "CWE-119",
           ExpectedResult::kTypeII, TrapKind::kOutOfBounds,
           vm::AssembleParts({kSharedGifReadImage, kGifReadMain}),
           vm::AssembleParts({renamed, kPngifyMain}),
           formats::MgifCodeSizePoc(), {"gif_read_image"},
           {{"gif_read_image", "read_raster_data"}}};
      break;
    }
    case 18:
      p = {idx, "avconv-batch", "12.3", "obs-studio", "27.1",
           "CVE-2018-11102 (three chunks)", "CWE-119",
           ExpectedResult::kTypeI, TrapKind::kOutOfBounds,
           vm::AssembleParts({kSharedStreamCopy, kStreamToolMain}),
           vm::AssembleParts({kSharedStreamCopy, kObsMain}),
           TripleChunkPoc(), {"stream_copy"}, {}};
      break;
    case 19:
      p = {idx, "rectool", "1.4", "rectool-ng", "2.0",
           "synthetic-UAF-001", "CWE-416", ExpectedResult::kTypeI,
           TrapKind::kUseAfterFree,
           vm::AssembleParts({kSharedUafProcessor, kRecToolMain}),
           vm::AssembleParts({kSharedUafProcessor, kRecToolNgMain}),
           UafPoc(), {"rec_process"}, {}};
      break;
    case 20:
      p = {idx, "thumbnailer", "3.2", "thumbnailer-hardened", "3.3",
           "synthetic-DIV-001", "CWE-369", ExpectedResult::kTypeIII,
           TrapKind::kDivByZero,
           vm::AssembleParts({kSharedScaler, kThumbnailerMain}),
           vm::AssembleParts({kSharedScaler, kThumbnailerHardenedMain}),
           DivZeroPoc(), {"img_scale"}, {}};
      break;
    case 21:
      p = {idx, "exiftool", "12.1", "thumbcache", "4.4",
           "synthetic-MMAP-001", "CWE-119", ExpectedResult::kTypeI,
           TrapKind::kOutOfBounds,
           vm::AssembleParts({kSharedExifWalk, kExiftoolMain}),
           vm::AssembleParts({kSharedExifWalk, kThumbcacheMain}),
           ExifPoc(), {"exif_walk"}, {}};
      break;
    case 22:
      // The warm-up loop makes P2/P3 end program-dead (a dead-end
      // NotTriggerable), so the registry expects Type-III from the
      // stock pipeline; with --fuzz-fallback the directed campaign
      // cracks the count header and upgrades it to TriggeredByFuzzing.
      p = {idx, "tagtool", "1.2", "tagcache", "2.0",
           "synthetic-FUZZ-001", "CWE-119", ExpectedResult::kTypeIII,
           TrapKind::kOutOfBounds,
           vm::AssembleParts({kSharedTagStore, kTagToolMain}),
           vm::AssembleParts({kSharedTagStore, kTagCacheMain}),
           TagPoc(), {"tag_store"}, {}};
      break;
    default:
      throw std::out_of_range("extended pair index must be in [16, 22]");
  }
  return p;
}

std::vector<Pair> BuildExtendedCorpus() {
  std::vector<Pair> pairs;
  for (int i = 16; i <= 22; ++i) pairs.push_back(BuildExtendedPair(i));
  return pairs;
}

}  // namespace octopocs::corpus
