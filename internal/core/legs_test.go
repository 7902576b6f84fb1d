package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/txn"
)

// TestPathLegsPinned runs one unloaded transaction per (platform,
// DestKind, Op) and pins every channel it crosses: the exact message and
// byte counts per channel, in Channels() order, writebacks included, and
// the transaction's latency. The source sits on chiplet 1 and the far end
// on a different index (UMC 3, module 1, chiplet 2) so a leg that picks
// the wrong end's channel shows up.
func TestPathLegsPinned(t *testing.T) {
	src := topology.CoreID{CCD: 1}
	want := map[string]string{
		"EPYC 7302/dram/read":         "122.291ns: noc/rd=1x64 noc/wr=1x16 ccd1/gmi/in=1x64 ccd1/gmi/out=1x16 umc3/rd=1x64",
		"EPYC 7302/dram/write":        "122.291ns: noc/rd=1x64 noc/wr=2x80 ccd1/gmi/in=1x64 ccd1/gmi/out=2x80 umc3/rd=1x64 umc3/wr=1x64",
		"EPYC 7302/dram/ntwrite":      "123.17ns: noc/rd=1x8 noc/wr=1x64 ccd1/gmi/in=1x8 ccd1/gmi/out=1x64 umc3/wr=1x64",
		"EPYC 7302/llc-intra/read":    "142.759ns: ccd1/if/in=1x64 ccd1/if/out=1x16",
		"EPYC 7302/llc-intra/write":   "142.759ns: ccd1/if/in=1x64 ccd1/if/out=1x16",
		"EPYC 7302/llc-intra/ntwrite": "142.659ns: ccd1/if/in=1x8 ccd1/if/out=1x64",
		"EPYC 7302/llc-inter/read":    "141.31ns: noc/rd=1x64 noc/wr=1x16 ccd1/gmi/in=1x64 ccd1/gmi/out=1x16 ccd2/gmi/in=1x16 ccd2/gmi/out=1x64",
		"EPYC 7302/llc-inter/write":   "141.31ns: noc/rd=1x64 noc/wr=1x16 ccd1/gmi/in=1x64 ccd1/gmi/out=1x16 ccd2/gmi/in=1x16 ccd2/gmi/out=1x64",
		"EPYC 7302/llc-inter/ntwrite": "141.091ns: noc/rd=1x8 noc/wr=1x64 ccd1/gmi/in=1x8 ccd1/gmi/out=1x64 ccd2/gmi/in=1x64 ccd2/gmi/out=1x8",
		"EPYC 9634/dram/read":         "147.317ns: noc/rd=1x64 noc/wr=1x16 ccd1/gmi/in=1x64 ccd1/gmi/out=1x16 umc3/rd=1x64",
		"EPYC 9634/dram/write":        "147.317ns: noc/rd=1x64 noc/wr=2x80 ccd1/gmi/in=1x64 ccd1/gmi/out=2x80 umc3/rd=1x64 umc3/wr=1x64",
		"EPYC 9634/dram/ntwrite":      "148.195ns: noc/rd=1x8 noc/wr=1x64 ccd1/gmi/in=1x8 ccd1/gmi/out=1x64 umc3/wr=1x64",
		"EPYC 9634/cxl/read":          "241.076ns: noc/rd=1x64 noc/wr=1x16 ccd1/gmi/in=1x64 ccd1/gmi/out=1x16 cxl1/rd=1x68 cxl1/wr=1x16",
		"EPYC 9634/cxl/write":         "241.076ns: noc/rd=1x64 noc/wr=1x16 ccd1/gmi/in=1x64 ccd1/gmi/out=1x16 cxl1/rd=1x68 cxl1/wr=1x16",
		"EPYC 9634/cxl/ntwrite":       "241.194ns: noc/rd=1x8 noc/wr=1x64 ccd1/gmi/in=1x8 ccd1/gmi/out=1x64 cxl1/rd=1x8 cxl1/wr=1x68",
		"EPYC 9634/llc-intra/read":    "123.231ns: ccd1/if/in=1x64 ccd1/if/out=1x16",
		"EPYC 9634/llc-intra/write":   "123.231ns: ccd1/if/in=1x64 ccd1/if/out=1x16",
		"EPYC 9634/llc-intra/ntwrite": "123.134ns: ccd1/if/in=1x8 ccd1/if/out=1x64",
		"EPYC 9634/llc-inter/read":    "156.627ns: noc/rd=1x64 noc/wr=1x16 ccd1/gmi/in=1x64 ccd1/gmi/out=1x16 ccd2/gmi/in=1x16 ccd2/gmi/out=1x64",
		"EPYC 9634/llc-inter/write":   "156.627ns: noc/rd=1x64 noc/wr=1x16 ccd1/gmi/in=1x64 ccd1/gmi/out=1x16 ccd2/gmi/in=1x16 ccd2/gmi/out=1x64",
		"EPYC 9634/llc-inter/ntwrite": "156.088ns: noc/rd=1x8 noc/wr=1x64 ccd1/gmi/in=1x8 ccd1/gmi/out=1x64 ccd2/gmi/in=1x64 ccd2/gmi/out=1x8",
	}
	shapes := 0
	for _, p := range []*topology.Profile{topology.EPYC7302(), topology.EPYC9634()} {
		for kind := DestDRAM; kind <= DestLLCInter; kind++ {
			if kind == DestCXL && p.CXLModules == 0 {
				continue
			}
			for _, op := range []txn.Op{txn.Read, txn.Write, txn.NTWrite} {
				shapes++
				name := fmt.Sprintf("%s/%v/%v", p.Name, kind, op)
				net := newNet(p)
				a := Access{Src: src, Op: op, Kind: kind, UMC: 3, Module: 1, DstCCD: 2}
				var got strings.Builder
				net.Issue(a, nil, func(tx *txn.Transaction) {
					fmt.Fprintf(&got, "%v:", tx.Latency())
				})
				net.Engine().Run()
				for _, ch := range net.Channels() {
					if s := ch.Stats(); s.Messages > 0 {
						fmt.Fprintf(&got, " %s=%dx%d", s.Name, s.Messages, s.Bytes)
					}
				}
				if got.String() != want[name] {
					t.Errorf("%s:\n got %q\nwant %q", name, got.String(), want[name])
				}
			}
		}
	}
	if shapes != len(want) {
		t.Errorf("ran %d shapes, pinned %d", shapes, len(want))
	}
}
