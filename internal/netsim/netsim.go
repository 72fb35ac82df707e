// Package netsim models the network link between the compute node and the
// NFS server in the paper's data-dumping experiments: a 10 Gbps Ethernet
// path with realistic packetization overhead and latency.
//
// The model is deliberately simple — serialization delay plus per-message
// propagation — because the paper's transit energy behaviour is driven by
// the split between frequency-scaled client CPU work and frequency-
// independent wire time, not by congestion dynamics.
package netsim

import (
	"fmt"
	"math"
)

// Link describes one network path.
type Link struct {
	Name string
	// BandwidthBps is the raw signaling rate in bits per second.
	BandwidthBps float64
	// LatencySec is the one-way message latency (propagation + switching).
	LatencySec float64
	// MTU is the maximum transmission unit in bytes (payload + headers).
	MTU int
	// HeaderBytes is the per-packet protocol overhead (Ethernet + IP +
	// TCP/RPC framing).
	HeaderBytes int
}

// TenGbE returns the 10 Gbps Ethernet link of the paper's Section VI-B
// experiment, with standard 1500-byte frames.
func TenGbE() Link {
	return Link{
		Name:         "10GbE",
		BandwidthBps: 10e9,
		LatencySec:   50e-6,
		MTU:          1500,
		HeaderBytes:  66, // 14 eth + 20 ip + 32 tcp w/ timestamps
	}
}

// JumboTenGbE is TenGbE with 9000-byte jumbo frames (an ablation knob: less
// packetization overhead, slightly better goodput).
func JumboTenGbE() Link {
	l := TenGbE()
	l.Name = "10GbE-jumbo"
	l.MTU = 9000
	return l
}

// Custom builds a link with arbitrary bandwidth, latency and framing — the
// knob the in-transit compression economics sweep over. Degenerate
// geometries are rejected rather than silently producing infinite or
// negative transfer times: bandwidth must be positive and finite, latency
// non-negative and finite, and the MTU must leave at least one payload byte
// after headers.
func Custom(name string, bandwidthBps, latencySec float64, mtu, headerBytes int) (Link, error) {
	if !(bandwidthBps > 0) || math.IsInf(bandwidthBps, 0) {
		return Link{}, fmt.Errorf("netsim: bandwidth %g bps outside (0, inf)", bandwidthBps)
	}
	if latencySec < 0 || math.IsInf(latencySec, 0) || math.IsNaN(latencySec) {
		return Link{}, fmt.Errorf("netsim: latency %g s outside [0, inf)", latencySec)
	}
	if headerBytes < 0 {
		return Link{}, fmt.Errorf("netsim: negative header bytes %d", headerBytes)
	}
	if mtu <= headerBytes {
		return Link{}, fmt.Errorf("netsim: MTU %d leaves no payload after %d header bytes", mtu, headerBytes)
	}
	if name == "" {
		name = fmt.Sprintf("custom-%.3gbps", bandwidthBps)
	}
	return Link{
		Name:         name,
		BandwidthBps: bandwidthBps,
		LatencySec:   latencySec,
		MTU:          mtu,
		HeaderBytes:  headerBytes,
	}, nil
}

// WithBandwidth returns a copy of the link clocked at a different signaling
// rate — the break-even sweeps vary bandwidth while holding framing fixed.
func (l Link) WithBandwidth(bps float64) Link {
	l.BandwidthBps = bps
	return l
}

// payloadPerPacket returns the usable payload bytes per packet.
func (l Link) payloadPerPacket() int {
	p := l.MTU - l.HeaderBytes
	if p < 1 {
		p = 1
	}
	return p
}

// Packets returns the number of packets needed for payloadBytes.
func (l Link) Packets(payloadBytes int64) int64 {
	if payloadBytes <= 0 {
		return 0
	}
	pp := int64(l.payloadPerPacket())
	return (payloadBytes + pp - 1) / pp
}

// WireBytes returns the total on-wire bytes (payload plus per-packet
// headers) for a payload.
func (l Link) WireBytes(payloadBytes int64) int64 {
	if payloadBytes <= 0 {
		return 0
	}
	return payloadBytes + l.Packets(payloadBytes)*int64(l.HeaderBytes)
}

// SerializationTime is the time to clock the payload's wire bytes onto the
// link, excluding latency.
func (l Link) SerializationTime(payloadBytes int64) float64 {
	if l.BandwidthBps <= 0 {
		return math.Inf(1)
	}
	return float64(l.WireBytes(payloadBytes)) * 8 / l.BandwidthBps
}

// MessageTime is the end-to-end time for one message: serialization plus
// one-way latency.
func (l Link) MessageTime(payloadBytes int64) float64 {
	return l.SerializationTime(payloadBytes) + l.LatencySec
}

func (l Link) String() string {
	return fmt.Sprintf("%s (%.1f Gbps, MTU %d, %.0f us)",
		l.Name, l.BandwidthBps/1e9, l.MTU, l.LatencySec*1e6)
}
