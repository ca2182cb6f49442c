#include "corpus/pairs.h"

#include <stdexcept>

#include "corpus/shared.h"
#include "formats/formats.h"
#include "vm/asm.h"

namespace octopocs::corpus {

std::string_view ExpectedResultName(ExpectedResult r) {
  switch (r) {
    case ExpectedResult::kTypeI: return "Type-I";
    case ExpectedResult::kTypeII: return "Type-II";
    case ExpectedResult::kTypeIII: return "Type-III";
    case ExpectedResult::kFailure: return "Failure";
  }
  return "?";
}

namespace {

using formats::MgifCodeSizePoc;
using formats::MjpgDimsOverflowPoc;
using formats::MjpgQuantIndexPoc;
using formats::MjpgStreamChunkPoc;
using formats::MpdfCyclePoc;
using formats::MpdfEmbeddedJ2kPoc;
using formats::MpdfMetaOverflowPoc;
using formats::MpdfMetaWrapPoc;
using formats::MtifPageNamePoc;
using formats::Mj2kZeroComponentPoc;

// ---------------------------------------------------------------------------
// Harness sources. Each is linked (textually) with the matching shared-ℓ
// snippet from corpus/shared.h, so ℓ is byte-identical in S and T.
// ---------------------------------------------------------------------------

// -- Pairs 1-2: MJPG quant-index OOB ---------------------------------------

// S: jpeg-compressor — check the magic, hand the stream to the decoder.
const char* kJpegCompressorMain = R"(
  program "jpeg-compressor"
  func main()
    movi %n, 4
    alloc %magic, %n
    read %got, %magic, %n
    load.4 %m, %magic, 0
    movi %want, 0x47504a4d        ; "MJPG"
    cmpeq %ok, %m, %want
    assert %ok
    movi %zero, 0
    call %v, mjpg_decode(%zero)
    ret %v
)";

// T(1): libgdx — framework initialisation over a config table, then the
// same decode path (Type-I: identical file layout).
const char* kLibgdxMain = R"(
  program "libgdx"
  data gdx_config:
    .u8 3 1 4 1 5
  func main()
    movi %p, @gdx_config
    movi %i, 0
    movi %ncfg, 5
    movi %acc, 0
  init:
    cmpltu %more, %i, %ncfg
    br %more, loadcfg, ready
  loadcfg:
    add %q, %p, %i
    load.1 %c, %q, 0
    add %acc, %acc, %c
    addi %i, %i, 1
    jmp init
  ready:
    movi %n, 4
    alloc %magic, %n
    read %got, %magic, %n
    load.4 %m, %magic, 0
    movi %want, 0x47504a4d
    cmpeq %ok, %m, %want
    assert %ok
    movi %zero, 0
    call %v, mjpg_decode(%zero)
    ret %v
)";

// T(2): zxing — sniffs the first segment marker before decoding.
const char* kZxingMain = R"(
  program "zxing"
  func main()
    movi %n, 4
    alloc %magic, %n
    read %got, %magic, %n
    load.4 %m, %magic, 0
    movi %want, 0x47504a4d
    cmpeq %ok, %m, %want
    assert %ok
    movi %one, 1
    alloc %probe, %one
    read %g2, %probe, %one
    load.1 %t, %probe, 0
    movi %tq, 0xd8
    cmpeq %isq, %t, %tq
    movi %ts, 0xda
    cmpeq %iss, %t, %ts
    movi %te, 0xd9
    cmpeq %ise, %t, %te
    or %known, %isq, %iss
    or %known, %known, %ise
    assert %known                 ; marker must be recognisable
    movi %four, 4
    seek %four                    ; rewind to the segment stream
    movi %zero, 0
    call %v, mjpg_decode(%zero)
    ret %v
)";

// -- Pair 3: MPDF page-walk cycle (CWE-835) ---------------------------------

// S: pdftops (Poppler) — count pass, render-flag check, full walk.
const char* kPopplerPdftopsMain = R"(
  program "pdftops-poppler"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n           ; "%PDF" + npages
    load.4 %m, %hdr, 0
    movi %want, 0x46445025        ; "%PDF"
    cmpeq %ok, %m, %want
    assert %ok
    movi %zero, 0
    call %c1, pdf_walk_pages(%zero)  ; pass 1: count pages
    movi %five, 5
    seek %five
    movi %one, 1
    alloc %flag, %one
    read %g2, %flag, %one
    load.1 %f, %flag, 0
    cmpeq %okf, %f, %one
    assert %okf                   ; render flag must be set
    call %c2, pdf_walk_pages(%one)   ; pass 2: full walk (hangs on cycle)
    ret %c2
)";

// T: pdftops (Xpdf) — identical layout plus page-count validation.
const char* kXpdfPdftopsMain = R"(
  program "pdftops-xpdf"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n
    load.4 %m, %hdr, 0
    movi %want, 0x46445025
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %npages, %hdr, 4
    movi %cap, 9
    cmpltu %fits, %npages, %cap
    assert %fits                  ; Xpdf validates the page count
    movi %zero, 0
    call %c1, pdf_walk_pages(%zero)
    movi %five, 5
    seek %five
    movi %one, 1
    alloc %flag, %one
    read %g2, %flag, %one
    load.1 %f, %flag, 0
    cmpeq %okf, %f, %one
    assert %okf
    call %c2, pdf_walk_pages(%one)
    ret %c2
)";

// -- Pair 4: MJPG stream-chunk overflow (CWE-119) ---------------------------

// S: avconv — per chunk the harness reads the marker, ℓ reads the rest.
const char* kAvconvMain = R"(
  program "avconv"
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

// T: ffmpeg — option-table prologue, then the identical chunk loop.
const char* kFfmpegMain = R"(
  program "ffmpeg"
  data ff_options:
    .u8 1 0 2 0 1 1
  func main()
    movi %p, @ff_options
    movi %i, 0
    movi %nopt, 6
    movi %acc, 0
  opts:
    cmpltu %more, %i, %nopt
    br %more, loadopt, ready
  loadopt:
    add %q, %p, %i
    load.1 %c, %q, 0
    add %acc, %acc, %c
    addi %i, %i, 1
    jmp opts
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

// -- Pair 5: dimension integer overflow (CWE-190) ---------------------------

// S: tjbench (libjpeg-turbo) — segment loop dispatching to ℓ on 0xC4.
const char* kTjbenchMain = R"(
  program "tjbench-libjpeg-turbo"
  func main()
    movi %n, 4
    alloc %magic, %n
    read %got, %magic, %n
    load.4 %m, %magic, 0
    movi %want, 0x47504a4d
    cmpeq %ok, %m, %want
    assert %ok
    movi %three, 3
    alloc %hdr, %three
  segloop:
    read %g2, %hdr, %three        ; [type:1][len:2]
    cmpltu %short, %g2, %three
    br %short, done, have
  have:
    load.1 %t, %hdr, 0
    load.2 %len, %hdr, 1
    movi %td, 0xc4
    cmpeq %isd, %t, %td
    br %isd, dims, notd
  dims:
    movi %zero, 0
    call %v, tj_decompress(%zero)
    jmp segloop
  notd:
    movi %te, 0xd9
    cmpeq %ise, %t, %te
    br %ise, done, skip
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    jmp segloop
  done:
    ret %g2
)";

// T: tjbench (mozjpeg) — benchmark warm-up loop, then the same path.
const char* kMozjpegMain = R"(
  program "tjbench-mozjpeg"
  data moz_bench:
    .u8 8 8 4
  func main()
    movi %p, @moz_bench
    movi %i, 0
    movi %rounds, 3
    movi %acc, 0
  warmup:
    cmpltu %more, %i, %rounds
    br %more, w, ready
  w:
    add %q, %p, %i
    load.1 %c, %q, 0
    add %acc, %acc, %c
    addi %i, %i, 1
    jmp warmup
  ready:
    movi %n, 4
    alloc %magic, %n
    read %got, %magic, %n
    load.4 %m, %magic, 0
    movi %want, 0x47504a4d
    cmpeq %ok, %m, %want
    assert %ok
    movi %three, 3
    alloc %hdr, %three
  segloop:
    read %g2, %hdr, %three
    cmpltu %short, %g2, %three
    br %short, done, have
  have:
    load.1 %t, %hdr, 0
    load.2 %len, %hdr, 1
    movi %td, 0xc4
    cmpeq %isd, %t, %td
    br %isd, dims, notd
  dims:
    movi %zero, 0
    call %v, tj_decompress(%zero)
    jmp segloop
  notd:
    movi %te, 0xd9
    cmpeq %ise, %t, %te
    br %ise, done, skip
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    jmp segloop
  done:
    ret %g2
)";

// -- Pairs 6 / 14: MPDF metadata overflow (CWE-119) -------------------------

// Object loop shared by the PDF harnesses: [id:1][type:1][len:2].
// type 1 = metadata (→ ℓ), type 0 = end, anything else is skipped.
const char* kPdfaltoMain = R"(
  program "pdfalto"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n
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
    read %g2, %obuf, %osz         ; [id][type][len:2]
    load.1 %type, %obuf, 1
    load.2 %len, %obuf, 2
    movi %tm, 1
    cmpeq %ism, %type, %tm
    br %ism, meta, notm
  meta:
    call %v, pdf_meta_copy(%len)
    addi %i, %i, 1
    jmp objloop
  notm:
    movi %tz, 0
    cmpeq %isz, %type, %tz
    br %isz, done, skip
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    addi %i, %i, 1
    jmp objloop
  done:
    ret %i
)";

// T(6): pdfinfo (Xpdf) — same container, object ids validated first.
const char* kXpdfPdfinfoMain = R"(
  program "pdfinfo-xpdf"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n
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
    read %g2, %obuf, %osz
    load.1 %id, %obuf, 0
    movi %zero, 0
    cmpne %idok, %id, %zero
    assert %idok                  ; Xpdf rejects object id 0
    load.1 %type, %obuf, 1
    load.2 %len, %obuf, 2
    movi %tm, 1
    cmpeq %ism, %type, %tm
    br %ism, meta, notm
  meta:
    call %v, pdf_meta_copy(%len)
    addi %i, %i, 1
    jmp objloop
  notm:
    movi %tz, 0
    cmpeq %isz, %type, %tz
    br %isz, done, skip
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    addi %i, %i, 1
    jmp objloop
  done:
    ret %i
)";

// T(14): pdftops (Xpdf 4.1.1) — the *patched* metadata path: declared
// lengths above 64 are rejected before ℓ ever runs.
const char* kXpdfPdftopsPatchedMain = R"(
  program "pdftops-xpdf-4.1.1"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n
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
    read %g2, %obuf, %osz
    load.1 %type, %obuf, 1
    load.2 %len, %obuf, 2
    movi %tm, 1
    cmpeq %ism, %type, %tm
    br %ism, meta, notm
  meta:
    movi %cap, 65
    cmpltu %fits, %len, %cap
    assert %fits                  ; the patch (bounds the declared length)
    call %v, pdf_meta_copy(%len)
    addi %i, %i, 1
    jmp objloop
  notm:
    movi %tz, 0
    cmpeq %isz, %type, %tz
    br %isz, done, skip
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    addi %i, %i, 1
    jmp objloop
  done:
    ret %i
)";

// -- Pairs 7 / 8 / 13: MJ2K zero-component null deref -----------------------

// ghostscript: walks the MPDF container and decodes the embedded image
// stream in place (ℓ reads from the current file position).
const char* kGhostscriptMain = R"(
  program "ghostscript"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n
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
    read %g2, %obuf, %osz
    load.1 %type, %obuf, 1
    load.2 %len, %obuf, 2
    movi %ti, 2
    cmpeq %isi, %type, %ti
    br %isi, image, noti
  image:
    movi %zero, 0
    call %v, mj2k_decode(%zero)   ; ℓ consumes the embedded stream
    addi %i, %i, 1
    jmp objloop
  noti:
    movi %tz, 0
    cmpeq %isz, %type, %tz
    br %isz, done, skip
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    addi %i, %i, 1
    jmp objloop
  done:
    ret %i
)";

// opj_dump: takes the bare codestream — ℓ is entered immediately.
const char* kOpjDumpMain = R"(
  program "opj_dump"
  func main()
    movi %zero, 0
    call %v, mj2k_decode(%zero)
    ret %v
)";

// T(8): MuPDF — container walk behind feature probes and an xref
// prescan where every entry branches on its payload (both directions
// continue). The pre-ep breadth is what blows up naive symbolic
// execution in Table IV — the stand-in for MuPDF's real parser depth.
const char* kMupdfMain = R"(
  program "mupdf"
  func main()
    movi %n, 6
    alloc %hdr, %n
    read %got, %hdr, %n           ; "%PDF" + nobj + feature flags
    load.4 %m, %hdr, 0
    movi %want, 0x46445025
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %nobj, %hdr, 4
    load.1 %flags, %hdr, 5
    movi %acc, 0
    movi %b, 1
    and %f0, %flags, %b
    br %f0, f0y, f0n
  f0y:
    addi %acc, %acc, 1
    jmp f1
  f0n:
    jmp f1
  f1:
    movi %b1, 2
    and %fv1, %flags, %b1
    br %fv1, f1y, f1n
  f1y:
    addi %acc, %acc, 2
    jmp f2
  f1n:
    jmp f2
  f2:
    movi %b2, 4
    and %fv2, %flags, %b2
    br %fv2, f2y, f2n
  f2y:
    addi %acc, %acc, 4
    jmp f3
  f2n:
    jmp f3
  f3:
    movi %b3, 8
    and %fv3, %flags, %b3
    br %fv3, f3y, f3n
  f3y:
    addi %acc, %acc, 8
    jmp xref
  f3n:
    jmp xref
  xref:
    movi %xn, 8
    alloc %xbuf, %xn
    read %gx, %xbuf, %xn          ; xref: 8 entries, 1 byte each
    movi %xi, 0
    movi %one, 1
  xrefloop:
    cmpltu %xmore, %xi, %xn
    br %xmore, xbody, objstart
  xbody:
    add %xp, %xbuf, %xi
    load.1 %xe, %xp, 0
    and %xbit, %xe, %one
    br %xbit, xfree, xused
  xfree:
    addi %acc, %acc, 1
    jmp xnext
  xused:
    addi %acc, %acc, 2
    jmp xnext
  xnext:
    addi %xi, %xi, 1
    jmp xrefloop
  objstart:
    movi %osz, 4
    alloc %obuf, %osz
    movi %i, 0
  objloop:
    cmpltu %more, %i, %nobj
    br %more, obj, done
  obj:
    read %g2, %obuf, %osz         ; [id][type][len:2]
    load.1 %type, %obuf, 1
    load.2 %len, %obuf, 2
    movi %ti, 2
    cmpeq %isi, %type, %ti
    br %isi, image, noti
  image:
    movi %zero, 0
    call %v, mj2k_decode(%zero)
    addi %i, %i, 1
    jmp objloop
  noti:
    movi %tm, 1
    cmpeq %ism, %type, %tm
    br %ism, skip, notm
  notm:
    movi %tp, 3
    cmpeq %isp, %type, %tp
    br %isp, skip, notp
  notp:
    movi %tz, 0
    cmpeq %isz, %type, %tz
    br %isz, done, bad
  bad:
    trap
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    addi %i, %i, 1
    jmp objloop
  done:
    ret %i
)";

// T(13): opj_dump 2.2.0 — the patched build: a preflight peek rejects
// zero-component streams before the cloned decoder runs.
const char* kOpjDumpPatchedMain = R"(
  program "opj_dump-2.2.0"
  func main()
    movi %n, 8
    alloc %peek, %n
    read %got, %peek, %n          ; magic(4) + box hdr(3) + ncomp(1)
    load.1 %nc, %peek, 7
    movi %zero, 0
    cmpne %ok, %nc, %zero
    assert %ok                    ; the patch
    seek %zero
    call %v, mj2k_decode(%zero)
    ret %v
)";

// -- Pair 9: MGIF code-size overflow (artificial strict gif2png) ------------

const char* kGif2pngMain = R"(
  program "gif2png"
  func main()
    movi %six, 6
    alloc %hdr, %six
    read %got, %hdr, %six         ; "GIF" + version (unchecked prefix only)
    load.1 %g, %hdr, 0
    movi %cg, 'G'
    cmpeq %okg, %g, %cg
    assert %okg
    load.1 %i1, %hdr, 1
    movi %ci, 'I'
    cmpeq %oki, %i1, %ci
    assert %oki
    load.1 %f, %hdr, 2
    movi %cf, 'F'
    cmpeq %okf, %f, %cf
    assert %okf
    movi %four, 4
    alloc %dims, %four
    read %g2, %dims, %four        ; [w:2][h:2]
    movi %pacc, 0
    movi %pn, 16
    alloc %pal, %pn
    read %gp, %pal, %pn           ; 16-byte palette prescan
    movi %pi, 0
    movi %pone, 1
  palloop:
    cmpltu %pmore, %pi, %pn
    br %pmore, pbody, blocks
  pbody:
    add %pp, %pal, %pi
    load.1 %pc, %pp, 0
    and %pbit, %pc, %pone
    br %pbit, podd, peven
  podd:
    addi %pacc, %pacc, 1
    jmp pnext
  peven:
    addi %pacc, %pacc, 2
    jmp pnext
  pnext:
    addi %pi, %pi, 1
    jmp palloop
  blocks:
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

// T: the paper's artificial strict build — invalid GIF versions are
// rejected up front ("GIF87a" / "GIF89a" only).
const char* kGif2pngStrictMain = R"(
  program "gif2png-strict"
  func main()
    movi %six, 6
    alloc %hdr, %six
    read %got, %hdr, %six
    load.1 %g, %hdr, 0
    movi %cg, 'G'
    cmpeq %okg, %g, %cg
    assert %okg
    load.1 %i1, %hdr, 1
    movi %ci, 'I'
    cmpeq %oki, %i1, %ci
    assert %oki
    load.1 %f, %hdr, 2
    movi %cf, 'F'
    cmpeq %okf, %f, %cf
    assert %okf
    load.1 %v0, %hdr, 3
    movi %c8, '8'
    cmpeq %ok0, %v0, %c8
    assert %ok0                   ; strict version check, part 1
    load.1 %v1, %hdr, 4
    movi %c7, '7'
    cmpeq %is7, %v1, %c7
    movi %c9, '9'
    cmpeq %is9, %v1, %c9
    or %ok1, %is7, %is9
    assert %ok1                   ; "87" or "89"
    load.1 %v2, %hdr, 5
    movi %ca, 'a'
    cmpeq %ok2, %v2, %ca
    assert %ok2                   ; ...and the trailing 'a'
    movi %four, 4
    alloc %dims, %four
    read %g2, %dims, %four
    movi %pacc, 0
    movi %pn, 16
    alloc %pal, %pn
    read %gp, %pal, %pn           ; 16-byte palette prescan
    movi %pi, 0
    movi %pone, 1
  palloop:
    cmpltu %pmore, %pi, %pn
    br %pmore, pbody, blocks
  pbody:
    add %pp, %pal, %pi
    load.1 %pc, %pp, 0
    and %pbit, %pc, %pone
    br %pbit, podd, peven
  podd:
    addi %pacc, %pacc, 1
    jmp pnext
  peven:
    addi %pacc, %pacc, 2
    jmp pnext
  pnext:
    addi %pi, %pi, 1
    jmp palloop
  blocks:
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

// -- Pairs 10-12: MTIF hardcoded-tag reuse (Type-III) ------------------------

// S: tiffsplit — parses IFD entries from the file and forwards each to
// the shared getter (tag and count are attacker-controlled).
const char* kTiffsplitMain = R"(
  program "tiffsplit"
  func main()
    movi %four, 4
    alloc %magic, %four
    read %got, %magic, %four
    load.4 %m, %magic, 0
    movi %want, 0x002a4949        ; "II*\0"
    cmpeq %ok, %m, %want
    assert %ok
    movi %two, 2
    alloc %cntbuf, %two
    read %g2, %cntbuf, %two
    load.2 %nent, %cntbuf, 0
    movi %esz, 32
    alloc %ebuf, %esz
    movi %eight, 8
    movi %i, 0
  entloop:
    cmpltu %more, %i, %nent
    br %more, ent, done
  ent:
    read %g3, %ebuf, %eight       ; [tag:2][count:2][value:4]
    load.2 %tag, %ebuf, 0
    load.2 %cnt, %ebuf, 2
    addi %src, %ebuf, 4
    call %v, tif_vget(%tag, %cnt, %src)
    addi %i, %i, 1
    jmp entloop
  done:
    ret %i
)";

// The Type-III targets: same getter clone, but every query uses a
// hardcoded tag table — the 0x13D context can never be delivered.
const char* kOpjCompressMain = R"(
  program "opj_compress"
  data opj_tags:
    .u16 0x100 0x101 0x102 0x103 0x106 0x111 0x115
  func main()
    movi %four, 4
    alloc %magic, %four
    read %got, %magic, %four
    load.4 %m, %magic, 0
    movi %want, 0x002a4949
    cmpeq %ok, %m, %want
    assert %ok
    alloc %val, %four
    movi %p, @opj_tags
    movi %i, 0
    movi %ntags, 7
    movi %two, 2
  tagloop:
    cmpltu %more, %i, %ntags
    br %more, q, done
  q:
    mul %off, %i, %two
    add %tp, %p, %off
    load.2 %tag, %tp, 0
    call %v, tif_vget(%tag, %four, %val)
    addi %i, %i, 1
    jmp tagloop
  done:
    ret %i
)";

const char* kLibsdl2Main = R"(
  program "libsdl2"
  data sdl_tags:
    .u16 0x102 0x106 0x115
  func main()
    movi %four, 4
    alloc %magic, %four
    read %got, %magic, %four
    load.4 %m, %magic, 0
    movi %want, 0x002a4949
    cmpeq %ok, %m, %want
    assert %ok
    alloc %val, %four
    movi %p, @sdl_tags
    movi %i, 0
    movi %ntags, 3
    movi %two, 2
  tagloop:
    cmpltu %more, %i, %ntags
    br %more, q, done
  q:
    mul %off, %i, %two
    add %tp, %p, %off
    load.2 %tag, %tp, 0
    call %v, tif_vget(%tag, %four, %val)
    addi %i, %i, 1
    jmp tagloop
  done:
    ret %i
)";

const char* kLibgdiplusMain = R"(
  program "libgdiplus"
  data gdip_tags:
    .u16 0x101 0x100
  func main()
    movi %four, 4
    alloc %magic, %four
    read %got, %magic, %four
    load.4 %m, %magic, 0
    movi %want, 0x002a4949
    cmpeq %ok, %m, %want
    assert %ok
    alloc %val, %four
    movi %p, @gdip_tags
    movi %i, 0
    movi %ntags, 2
    movi %two, 2
  tagloop:
    cmpltu %more, %i, %ntags
    br %more, q, done
  q:
    mul %off, %i, %two
    add %tp, %p, %off
    load.2 %tag, %tp, 0
    call %v, tif_vget(%tag, %four, %val)
    addi %i, %i, 1
    jmp tagloop
  done:
    ret %i
)";

// -- Pair 15: obfuscated dispatch (the simulated angr CFG defect) -----------

// S: pdf2htmlEX — metadata lengths flow into the wrapping copier.
const char* kPdf2htmlexMain = R"(
  program "pdf2htmlEX"
  func main()
    movi %n, 5
    alloc %hdr, %n
    read %got, %hdr, %n
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
    read %g2, %obuf, %osz
    load.1 %type, %obuf, 1
    load.2 %len, %obuf, 2
    movi %tm, 1
    cmpeq %ism, %type, %tm
    br %ism, meta, notm
  meta:
    call %v, pdf_meta_wrap(%len)
    addi %i, %i, 1
    jmp objloop
  notm:
    movi %tz, 0
    cmpeq %isz, %type, %tz
    br %isz, done, skip
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    addi %i, %i, 1
    jmp objloop
  done:
    ret %i
)";

// T: pdfinfo (Poppler) — a newer container revision (extra format
// version byte) whose metadata handler is dispatched through an
// XOR-obfuscated function pointer, the construct the simulated angr
// defect cannot resolve (paper Table II Idx-15: Failure).
const char* kPopplerPdfinfoMain = R"(
  program "pdfinfo-poppler"
  data xor_key:
    .u8 0x5a
  func main()
    movi %n, 6
    alloc %hdr, %n
    read %got, %hdr, %n           ; "%PDF" + version + nobj
    load.4 %m, %hdr, 0
    movi %want, 0x46445025
    cmpeq %ok, %m, %want
    assert %ok
    load.1 %ver, %hdr, 4
    movi %one, 1
    cmpeq %okv, %ver, %one
    assert %okv                   ; container revision must be 1
    load.1 %nobj, %hdr, 5
    fnaddr %hm, handle_meta
    movi %kp, @xor_key
    load.1 %key, %kp, 0
    xor %obf, %hm, %key           ; pointer kept obfuscated at rest
    movi %osz, 4
    alloc %obuf, %osz
    movi %i, 0
  objloop:
    cmpltu %more, %i, %nobj
    br %more, obj, done
  obj:
    read %g2, %obuf, %osz
    load.1 %type, %obuf, 1
    load.2 %len, %obuf, 2
    movi %tm, 1
    cmpeq %ism, %type, %tm
    br %ism, meta, notm
  meta:
    xor %h, %obf, %key            ; deobfuscate at the call site
    icall %v, %h(%len)
    addi %i, %i, 1
    jmp objloop
  notm:
    movi %tz, 0
    cmpeq %isz, %type, %tz
    br %isz, done, skip
  skip:
    tell %pos
    add %pos, %pos, %len
    seek %pos
    addi %i, %i, 1
    jmp objloop
  done:
    ret %i
  func handle_meta(len)
    call %v, pdf_meta_wrap(%len)
    ret %v
)";

vm::Program Link(const char* shared, const char* harness) {
  return vm::AssembleParts({shared, harness});
}

}  // namespace

Pair BuildPair(int idx) {
  using vm::TrapKind;
  Pair p;
  p.idx = idx;
  switch (idx) {
    case 1:
      p = {idx, "JPEG-compressor", "N/A", "libgdx", "1.9.10",
           "CVE-2017-0700", "No-CWE", ExpectedResult::kTypeI,
           TrapKind::kOutOfBounds,
           Link(kSharedMjpgDecoder, kJpegCompressorMain),
           Link(kSharedMjpgDecoder, kLibgdxMain), MjpgQuantIndexPoc(),
           {"mjpg_decode", "mjpg_quant", "mjpg_scan"}, {}};
      break;
    case 2:
      p = {idx, "JPEG-compressor", "N/A", "zxing", "@0a32109",
           "CVE-2017-0700", "No-CWE", ExpectedResult::kTypeI,
           TrapKind::kOutOfBounds,
           Link(kSharedMjpgDecoder, kJpegCompressorMain),
           Link(kSharedMjpgDecoder, kZxingMain), MjpgQuantIndexPoc(),
           {"mjpg_decode", "mjpg_quant", "mjpg_scan"}, {}};
      break;
    case 3:
      p = {idx, "pdftops (Poppler)", "0.59", "pdftops (Xpdf)", "4.02",
           "CVE-2017-18267", "CWE-835", ExpectedResult::kTypeI,
           TrapKind::kFuelExhausted,
           Link(kSharedPdfWalkPages, kPopplerPdftopsMain),
           Link(kSharedPdfWalkPages, kXpdfPdftopsMain), MpdfCyclePoc(),
           {"pdf_walk_pages"}, {}};
      break;
    case 4:
      p = {idx, "avconv", "12.3", "ffmpeg", "1.0", "CVE-2018-11102",
           "CWE-119", ExpectedResult::kTypeI, TrapKind::kOutOfBounds,
           Link(kSharedStreamCopy, kAvconvMain),
           Link(kSharedStreamCopy, kFfmpegMain), MjpgStreamChunkPoc(),
           {"stream_copy"}, {}};
      break;
    case 5:
      p = {idx, "tjbench (libjpeg-turbo)", "2.0.1", "tjbench (mozjpeg)",
           "@0xbbb7550", "CVE-2018-20330", "CWE-190",
           ExpectedResult::kTypeI, TrapKind::kOutOfBounds,
           Link(kSharedTjDecompress, kTjbenchMain),
           Link(kSharedTjDecompress, kMozjpegMain), MjpgDimsOverflowPoc(),
           {"tj_decompress"}, {}};
      break;
    case 6:
      p = {idx, "pdfalto", "0.2", "pdfinfo (Xpdf)", "4.0.0",
           "CVE-2019-9878", "CWE-119", ExpectedResult::kTypeI,
           TrapKind::kOutOfBounds, Link(kSharedPdfMetaCopy, kPdfaltoMain),
           Link(kSharedPdfMetaCopy, kXpdfPdfinfoMain),
           MpdfMetaOverflowPoc(), {"pdf_meta_copy"}, {}};
      break;
    case 7:
      p = {idx, "ghostscript", "9.26", "opj_dump", "2.1.1",
           "ghostscript-BZ697463", "No-CWE", ExpectedResult::kTypeII,
           TrapKind::kNullDeref,
           Link(kSharedMj2kDecoder, kGhostscriptMain),
           Link(kSharedMj2kDecoder, kOpjDumpMain), MpdfEmbeddedJ2kPoc(),
           {"mj2k_decode", "mj2k_components"}, {}};
      break;
    case 8:
      p = {idx, "opj_dump", "2.1.1", "MuPDF", "1.9",
           "ghostscript-BZ697463", "No-CWE", ExpectedResult::kTypeII,
           TrapKind::kNullDeref, Link(kSharedMj2kDecoder, kOpjDumpMain),
           Link(kSharedMj2kDecoder, kMupdfMain), Mj2kZeroComponentPoc(),
           {"mj2k_decode", "mj2k_components"}, {}};
      break;
    case 9:
      p = {idx, "gif2png", "2.5.8", "gif2png (artificial)", "N/A",
           "CVE-2011-2896", "CWE-119", ExpectedResult::kTypeII,
           TrapKind::kOutOfBounds,
           Link(kSharedGifReadImage, kGif2pngMain),
           Link(kSharedGifReadImage, kGif2pngStrictMain),
           MgifCodeSizePoc(), {"gif_read_image"}, {}};
      break;
    case 10:
      p = {idx, "tiffsplit", "4.0.6", "opj_compress", "2.3.1",
           "CVE-2016-10095", "CWE-119", ExpectedResult::kTypeIII,
           TrapKind::kOutOfBounds,
           Link(kSharedTifVGetField, kTiffsplitMain),
           Link(kSharedTifVGetField, kOpjCompressMain), MtifPageNamePoc(),
           {"tif_vget"}, {}};
      break;
    case 11:
      p = {idx, "tiffsplit", "4.0.6", "libsdl2", "2.0.12",
           "CVE-2016-10095", "CWE-119", ExpectedResult::kTypeIII,
           TrapKind::kOutOfBounds,
           Link(kSharedTifVGetField, kTiffsplitMain),
           Link(kSharedTifVGetField, kLibsdl2Main), MtifPageNamePoc(),
           {"tif_vget"}, {}};
      break;
    case 12:
      p = {idx, "tiffsplit", "4.0.6", "libgdiplus", "6.0.5",
           "CVE-2016-10095", "CWE-119", ExpectedResult::kTypeIII,
           TrapKind::kOutOfBounds,
           Link(kSharedTifVGetField, kTiffsplitMain),
           Link(kSharedTifVGetField, kLibgdiplusMain), MtifPageNamePoc(),
           {"tif_vget"}, {}};
      break;
    case 13:
      p = {idx, "ghostscript", "9.26", "opj_dump", "2.2.0",
           "ghostscript-BZ697463", "No-CWE", ExpectedResult::kTypeIII,
           TrapKind::kNullDeref,
           Link(kSharedMj2kDecoder, kGhostscriptMain),
           Link(kSharedMj2kDecoder, kOpjDumpPatchedMain),
           MpdfEmbeddedJ2kPoc(), {"mj2k_decode", "mj2k_components"}, {}};
      break;
    case 14:
      p = {idx, "pdfalto", "0.2", "pdftops (Xpdf)", "4.1.1",
           "CVE-2019-9878", "CWE-119", ExpectedResult::kTypeIII,
           TrapKind::kOutOfBounds, Link(kSharedPdfMetaCopy, kPdfaltoMain),
           Link(kSharedPdfMetaCopy, kXpdfPdftopsPatchedMain),
           MpdfMetaOverflowPoc(), {"pdf_meta_copy"}, {}};
      break;
    case 15:
      p = {idx, "pdf2htmlEX", "0.14.6", "pdfinfo (Poppler)", "0.41.0",
           "CVE-2018-21009", "CWE-190", ExpectedResult::kFailure,
           TrapKind::kOutOfBounds,
           Link(kSharedPdfMetaWrap, kPdf2htmlexMain),
           Link(kSharedPdfMetaWrap, kPopplerPdfinfoMain), MpdfMetaWrapPoc(),
           {"pdf_meta_wrap"}, {}};
      break;
    default:
      throw std::out_of_range("corpus pair index must be in [1, 15]");
  }
  return p;
}

std::vector<Pair> BuildCorpus() {
  std::vector<Pair> pairs;
  pairs.reserve(15);
  for (int i = 1; i <= 15; ++i) pairs.push_back(BuildPair(i));
  return pairs;
}

}  // namespace octopocs::corpus
