// Package devtree implements the paper's research direction #1: a
// hardware-abstracted chiplet networking layer. It renders a device-tree
// style description of the chiplet network ("/sys/firmware/chiplet-net" —
// the architectural overview of Figure 1) and a runtime telemetry view
// ("/proc/chiplet-net" — per-link counters: bytes, utilization, refusals
// and queueing), from a topology profile or a live network.
package devtree

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
)

// Node is one device-tree node: named, with sorted properties and ordered
// children.
type Node struct {
	Name     string            `json:"name"`
	Props    map[string]string `json:"props,omitempty"`
	Children []*Node           `json:"children,omitempty"`
}

// NewNode builds a node with no properties.
func NewNode(name string) *Node {
	return &Node{Name: name, Props: make(map[string]string)}
}

// Set adds or replaces a property.
func (n *Node) Set(key, value string) *Node {
	if n.Props == nil {
		n.Props = make(map[string]string)
	}
	n.Props[key] = value
	return n
}

// Setf adds a formatted property.
func (n *Node) Setf(key, format string, args ...interface{}) *Node {
	return n.Set(key, fmt.Sprintf(format, args...))
}

// Add appends a child and returns it for chaining.
func (n *Node) Add(child *Node) *Node {
	n.Children = append(n.Children, child)
	return child
}

// Find returns the first child with the given name, nil when absent.
func (n *Node) Find(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Walk visits n and every descendant in depth-first order.
func (n *Node) Walk(fn func(depth int, node *Node)) {
	var rec func(depth int, node *Node)
	rec = func(depth int, node *Node) {
		fn(depth, node)
		for _, c := range node.Children {
			rec(depth+1, c)
		}
	}
	rec(0, n)
}

// Render renders the tree in the devicetree source (.dts) style.
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("\t", depth)
	fmt.Fprintf(b, "%s%s {\n", indent, n.Name)
	keys := make([]string, 0, len(n.Props))
	for k := range n.Props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s\t%s = %q;\n", indent, k, n.Props[k])
	}
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
	fmt.Fprintf(b, "%s};\n", indent)
}

// MarshalJSON renders the tree as JSON (properties sorted by the standard
// library's map marshalling).
func (n *Node) JSON() ([]byte, error) {
	return json.MarshalIndent(n, "", "  ")
}

// FromProfile builds the static hardware description of a platform: the
// "/sys/firmware/chiplet-net" view.
func FromProfile(p *topology.Profile) *Node {
	root := NewNode("chiplet-net")
	root.Set("compatible", p.Name)
	root.Set("microarchitecture", p.Microarch)

	for ccd := 0; ccd < p.CCDs; ccd++ {
		cn := root.Add(NewNode(fmt.Sprintf("compute-chiplet@%d", ccd)))
		cn.Setf("node", "%v", p.CCDNode(ccd))
		cn.Set("process", p.ComputeNode)
		cn.Setf("gmi-read-capacity", "%v", p.GMIReadCap)
		cn.Setf("gmi-write-capacity", "%v", p.GMIWriteCap)
		cn.Setf("gmi-latency", "%v", p.GMILinkLatency)
		for ccx := 0; ccx < p.CCXPerCCD(); ccx++ {
			xn := cn.Add(NewNode(fmt.Sprintf("ccx@%d", ccx)))
			xn.Setf("cores", "%d", p.CoresPerCCX())
			xn.Setf("l3-slice", "%v", p.L3PerCCX())
			xn.Setf("l3-latency", "%v", p.L3Latency)
			xn.Setf("traffic-control-tokens", "%d", p.CCXTokens)
			for c := 0; c < p.CoresPerCCX(); c++ {
				co := xn.Add(NewNode(fmt.Sprintf("core@%d", c)))
				co.Setf("l1", "%v", p.L1PerCore)
				co.Setf("l2", "%v", p.L2PerCore)
				co.Setf("read-mshrs", "%d", p.CoreReadMSHRs)
				co.Setf("write-combine-buffers", "%d", p.CoreWriteWCBs)
			}
		}
	}

	io := root.Add(NewNode("io-chiplet@0"))
	io.Set("process", p.IONode)
	mesh := io.Add(NewNode("mesh"))
	mesh.Setf("switch-hop-latency", "%v", p.SHopLatency)
	mesh.Setf("base-hops", "%d", p.BaseSHops)
	mesh.Setf("routing-read-capacity", "%v", p.NoCReadCap)
	mesh.Setf("routing-write-capacity", "%v", p.NoCWriteCap)
	for umc := 0; umc < p.UMCChannels; umc++ {
		un := io.Add(NewNode(fmt.Sprintf("umc@%d", umc)))
		un.Setf("node", "%v", p.UMCNode(umc))
		un.Setf("read-capacity", "%v", p.UMCReadCap)
		un.Setf("write-capacity", "%v", p.UMCWriteCap)
		un.Setf("dram-latency", "%v", p.DRAMLatency)
	}
	hub := io.Add(NewNode("io-hub@0"))
	hub.Setf("node", "%v", p.IOHubNode())
	hub.Setf("latency", "%v", p.IOHubLatency)
	hub.Setf("pcie", "Gen%d x%d", p.PCIeGen, p.PCIeLanes)
	for m := 0; m < p.CXLModules; m++ {
		cx := hub.Add(NewNode(fmt.Sprintf("cxl@%d", m)))
		cx.Setf("plink-read-capacity", "%v", p.PLinkReadCap)
		cx.Setf("plink-write-capacity", "%v", p.PLinkWriteCap)
		cx.Setf("flit", "%v", p.CXLFlitSize)
		cx.Setf("device-latency", "%v", p.CXLDeviceLatency)
	}
	return root
}

// Telemetry renders the runtime per-link counters of a live network: the
// "/proc/chiplet-net" view. Columns: link, capacity, bytes, messages,
// refused sends (backpressure events), utilization, mean and maximum
// queueing.
func Telemetry(net *core.Network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# /proc/chiplet-net — %s @ %v\n", net.Profile().Name, net.Engine().Now())
	fmt.Fprintf(&b, "%-14s %12s %12s %10s %8s %6s %12s %12s\n",
		"link", "capacity", "bytes", "msgs", "refused", "util", "q-mean", "q-max")
	for _, ch := range net.Channels() {
		s := ch.Stats()
		fmt.Fprintf(&b, "%-14s %12s %12s %10d %8d %5.1f%% %12s %12s\n",
			s.Name, s.Capacity, s.Bytes, s.Messages, s.Refused,
			ch.Utilization()*100, s.MeanQueueing, s.MaxQueueing)
	}
	return b.String()
}
