// Package nfs simulates the write and read paths of a network file system
// mount over a netsim link — the "data dumping to NFS" substrate of the
// paper's transit experiments, plus the symmetric fetch path the
// checkpoint/restart store needs.
//
// The simulation is message-level: a transfer of N bytes becomes
// ceil(N/wsize) RPCs issued under a bounded asynchronous window (Linux NFS
// client semantics), serialized FIFO onto the link, processed by a
// single-threaded server, and acknowledged; a write completes with a COMMIT
// round trip. WRITE and READ share the same window/pipeline machinery with
// the data leg reversed: writes clock data client→server before server
// processing, reads clock data server→client after it. The result separates
// what the energy model needs: how long the wire and server are busy
// (frequency-independent) versus how many RPCs and bytes the *client CPU*
// must push (frequency-scaled work, attached by the machine package).
//
// A Mount may carry a FaultConfig backed by a seeded netsim.Injector, which
// perturbs the pipeline with transient faults — dropped data legs (resent
// after a retransmit timeout) and short writes (the server persists a
// prefix and the client resends the tail). Faults only add
// simulated time and RPC work; given the same seed the schedule is
// deterministic.
package nfs

import (
	"fmt"

	"lcpio/internal/netsim"
	"lcpio/internal/obs"
	"lcpio/internal/retry"
)

// Mount describes an NFS client/server pair.
type Mount struct {
	Link netsim.Link
	// WSize is the bytes per WRITE/READ RPC (the rsize/wsize mount option).
	WSize int
	// MaxInflight is the async RPC window: RPCs in flight before the
	// client must wait for acknowledgements.
	MaxInflight int
	// ServerPerRPC is the server-side processing time per RPC
	// (demarshaling, page-cache insertion).
	ServerPerRPC float64
	// ServerBWBps is the server-side absorption bandwidth (page cache /
	// storage commit path) in bytes-derived bits per second.
	ServerBWBps float64
	// Faults optionally injects transient faults into the pipeline; the
	// zero value disables injection entirely.
	Faults FaultConfig
}

// FaultConfig describes the transient-fault model layered over a mount.
// All faults draw from the shared Injector, so a seed fixes the schedule.
type FaultConfig struct {
	// Injector supplies the randomness; nil disables all faults.
	Injector *netsim.Injector
	// DropProb is the per-attempt probability that an RPC's data leg is
	// lost and must be resent after the retransmit timeout.
	DropProb float64
	// ShortWriteProb is the per-attempt probability that a WRITE RPC is
	// only partially persisted; the client resends the tail.
	ShortWriteProb float64
}

// retransmitTimeout is the simulated client timeout before a dropped leg
// is resent.
const retransmitTimeout = 20e-3

// retransmit expresses the client's retransmit behavior as the shared
// retry helper: a constant delay (Max == Base) per dropped leg — the NFS
// timeout shape — capped at maxLegAttempts. The ckpt medium-fault writer
// prices its capped-exponential waits through the same Policy type, so the
// backoff arithmetic cannot drift between layers.
var retransmit = retry.Policy{MaxAttempts: maxLegAttempts, Base: retransmitTimeout, Max: retransmitTimeout}

func (f FaultConfig) enabled() bool {
	return f.Injector != nil && (f.DropProb > 0 || f.ShortWriteProb > 0)
}

// maxLegAttempts bounds retransmissions per data leg so a DropProb of 1
// cannot hang the simulation; the final attempt always succeeds.
const maxLegAttempts = 16

// DefaultMount returns a mount tuned like the paper's CloudLab NFS setup:
// 1 MiB wsize over 10 GbE with a server that is not the bottleneck.
func DefaultMount() Mount {
	return Mount{
		Link:         netsim.TenGbE(),
		WSize:        1 << 20,
		MaxInflight:  16,
		ServerPerRPC: 30e-6,
		ServerBWBps:  20e9,
	}
}

func (m Mount) normalized() Mount {
	d := DefaultMount()
	if m.Link.BandwidthBps == 0 {
		m.Link = d.Link
	}
	if m.WSize <= 0 {
		m.WSize = d.WSize
	}
	if m.MaxInflight <= 0 {
		m.MaxInflight = d.MaxInflight
	}
	if m.ServerPerRPC <= 0 {
		m.ServerPerRPC = d.ServerPerRPC
	}
	if m.ServerBWBps <= 0 {
		m.ServerBWBps = d.ServerBWBps
	}
	return m
}

// Transfer summarizes one simulated transfer.
type Transfer struct {
	PayloadBytes int64
	RPCs         int64
	// WireBusySeconds is the total link serialization time (link occupancy),
	// including retransmitted bytes.
	WireBusySeconds float64
	// ServerBusySeconds is the total server processing time.
	ServerBusySeconds float64
	// NetworkSeconds is the wall-clock critical path of the network +
	// server pipeline, from first send to the final acknowledgement
	// (COMMIT for writes), excluding client CPU time (which the machine
	// model overlays).
	NetworkSeconds float64
	// Retransmits counts data legs that were dropped and resent; ShortWrites
	// counts WRITE RPCs the server only partially persisted. Both are zero
	// without fault injection.
	Retransmits int64
	ShortWrites int64
}

func (t Transfer) String() string {
	return fmt.Sprintf("%d B in %d RPCs: wire %.3fs, server %.3fs, wall %.3fs",
		t.PayloadBytes, t.RPCs, t.WireBusySeconds, t.ServerBusySeconds, t.NetworkSeconds)
}

// GoodputBps is payload bits per second over the network critical path.
func (t Transfer) GoodputBps() float64 {
	if t.NetworkSeconds <= 0 {
		return 0
	}
	return float64(t.PayloadBytes) * 8 / t.NetworkSeconds
}

// direction selects which way the data leg of each RPC points.
type direction int

const (
	dirWrite direction = iota // data client→server, COMMIT at the end
	dirRead                   // data server→client, no COMMIT
)

// Write simulates writing `bytes` to the mount and returns the transfer
// profile. It records nothing: pricing sinks call it for bytes that never
// move (a projected file, a counterfactual raw transfer), and Send is the
// write whose bytes do. Deterministic, including under fault injection with
// a fixed seed: each call takes its fault draws from the injector.
func (m Mount) Write(bytes int64) Transfer { return m.transfer(bytes, dirWrite) }

// Read simulates reading `bytes` back from the mount: READ RPCs under the
// same window, with the server serializing data onto the link and the
// client acknowledging. It shares the Write pipeline with the data leg
// reversed, records nothing, and has Fetch as its recording twin; the client
// CPU cost of receiving is attached by the machine package.
func (m Mount) Read(bytes int64) Transfer { return m.transfer(bytes, dirRead) }

// Send is Write for bytes that move: it records the transfer as an
// nfs.write span and the lcpio_nfs_write_* counters.
func (m Mount) Send(bytes int64) Transfer {
	span := obs.Start("nfs.write")
	defer span.End()
	t := m.Write(bytes)
	obs.Add("lcpio_nfs_write_bytes_total", bytes)
	obs.Add("lcpio_nfs_write_rpcs_total", t.RPCs)
	obs.AddFloat("lcpio_nfs_write_sim_seconds_total", t.NetworkSeconds)
	if t.Retransmits > 0 || t.ShortWrites > 0 {
		obs.Add("lcpio_nfs_retransmits_total", t.Retransmits)
		obs.Add("lcpio_nfs_short_writes_total", t.ShortWrites)
	}
	return t
}

// Fetch is Read for bytes that move: it records the transfer as an nfs.read
// span and the lcpio_nfs_read_* counters.
func (m Mount) Fetch(bytes int64) Transfer {
	span := obs.Start("nfs.read")
	defer span.End()
	t := m.Read(bytes)
	obs.Add("lcpio_nfs_read_bytes_total", bytes)
	obs.Add("lcpio_nfs_read_rpcs_total", t.RPCs)
	obs.AddFloat("lcpio_nfs_read_sim_seconds_total", t.NetworkSeconds)
	if t.Retransmits > 0 {
		obs.Add("lcpio_nfs_retransmits_total", t.Retransmits)
	}
	return t
}

// transfer is the shared window/pipeline core. Both directions issue
// ceil(bytes/wsize) RPCs under the MaxInflight window; each RPC runs a data
// leg over the FIFO link and a processing step on the single-threaded
// server, in direction-dependent order.
func (m Mount) transfer(bytes int64, dir direction) Transfer {
	m = m.normalized()
	if bytes <= 0 {
		return Transfer{}
	}
	w := int64(m.WSize)
	nRPC := (bytes + w - 1) / w
	window := m.MaxInflight
	faults := m.Faults.enabled()

	// ackAt holds completion times of in-flight RPCs for the window
	// constraint.
	ackAt := make([]float64, 0, window)
	var linkFree, serverFree float64
	var t Transfer
	t.PayloadBytes = bytes

	remaining := bytes
	var lastAck float64
	for i := int64(0); i < nRPC; i++ {
		sz := w
		if remaining < w {
			sz = remaining
		}
		remaining -= sz

		slotReady := 0.0
		if len(ackAt) >= window {
			slotReady = ackAt[0]
			ackAt = ackAt[1:]
		}
		var ack float64
		switch dir {
		case dirWrite:
			ack = m.writeRPC(sz, slotReady, faults, &linkFree, &serverFree, &t)
		default:
			ack = m.readRPC(sz, slotReady, faults, &linkFree, &serverFree, &t)
		}
		ackAt = append(ackAt, ack)
		lastAck = ack
	}

	t.RPCs = nRPC
	if dir == dirWrite {
		// COMMIT: one small round trip after all writes are stable.
		t.NetworkSeconds = lastAck + 2*m.Link.LatencySec + m.ServerPerRPC
		t.ServerBusySeconds += m.ServerPerRPC
	} else {
		t.NetworkSeconds = lastAck
	}
	return t
}

// writeRPC pushes one WRITE RPC's data leg client→server, lets the server
// absorb it, and returns the acknowledgement time. Dropped legs are resent
// after the retransmit timeout; short writes persist a prefix and loop on
// the tail through the same window slot.
func (m Mount) writeRPC(sz int64, slotReady float64, faults bool,
	linkFree, serverFree *float64, t *Transfer) float64 {
	lat := m.Link.LatencySec
	pend := sz
	ready := slotReady
	var ack float64
	attempts := 0
	for pend > 0 {
		attempts++
		ser := m.Link.SerializationTime(pend)
		sendStart := max(ready, *linkFree)
		*linkFree = sendStart + ser
		t.WireBusySeconds += ser
		if faults && !retransmit.Exhausted(attempts) && m.Faults.Injector.Hit(m.Faults.DropProb) {
			// The bytes burned wire time but never arrived; the client
			// times out and resends the whole pending range.
			t.Retransmits++
			ready = *linkFree + retransmit.Backoff(attempts)
			continue
		}
		arrive := *linkFree + lat
		persisted := pend
		if faults && pend > 1 && attempts < maxLegAttempts &&
			m.Faults.Injector.Hit(m.Faults.ShortWriteProb) {
			// The server persists a prefix (at least one byte, never all);
			// the WRITE reply's count tells the client to resend the tail.
			frac := 0.1 + 0.8*m.Faults.Injector.Uniform()
			persisted = int64(frac * float64(pend))
			if persisted < 1 {
				persisted = 1
			}
			if persisted >= pend {
				persisted = pend - 1
			}
			t.ShortWrites++
		}
		proc := m.ServerPerRPC + float64(persisted)*8/m.ServerBWBps
		serverStart := max(arrive, *serverFree)
		*serverFree = serverStart + proc
		t.ServerBusySeconds += proc
		ack = *serverFree + lat
		pend -= persisted
		ready = ack
	}
	return ack
}

// readRPC sends one READ request, lets the server process it, and clocks
// the data leg server→client, returning the time the data lands. Dropped
// response legs are resent by the server after the client's timeout.
func (m Mount) readRPC(sz int64, slotReady float64, faults bool,
	linkFree, serverFree *float64, t *Transfer) float64 {
	lat := m.Link.LatencySec
	// Request: a small RPC reaches the server after one latency.
	reqArrive := slotReady + lat
	proc := m.ServerPerRPC + float64(sz)*8/m.ServerBWBps
	serverStart := max(reqArrive, *serverFree)
	*serverFree = serverStart + proc
	t.ServerBusySeconds += proc

	// Response: the server serializes the data block back.
	ready := *serverFree
	var ack float64
	for attempt := 1; ; attempt++ {
		ser := m.Link.SerializationTime(sz)
		sendStart := max(ready, *linkFree)
		*linkFree = sendStart + ser
		t.WireBusySeconds += ser
		if faults && !retransmit.Exhausted(attempt) && m.Faults.Injector.Hit(m.Faults.DropProb) {
			t.Retransmits++
			ready = *linkFree + retransmit.Backoff(attempt)
			continue
		}
		ack = *linkFree + lat
		break
	}
	return ack
}
