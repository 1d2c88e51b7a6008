package netsim

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/testutil"
)

// The chaos proxy promises goroutine-clean shutdown; echo helpers exit
// with their listeners. A leaked pipe goroutine fails the whole package.
func TestMain(m *testing.M) {
	testutil.VerifyTestMain(m)
}

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				close(done)
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				c.Close()
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }
}

func TestChaosProxyForwardsTransparently(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewChaosProxy(addr, ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("100 42.5 CWND\n200 43 CWND\n")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n := 0
	for n < len(msg) {
		m, err := conn.Read(got[n:])
		if err != nil {
			t.Fatalf("echo read after %d bytes: %v", n, err)
		}
		n += m
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo corrupted: %q vs %q", got, msg)
	}
	// The proxy counts a chunk after writing it on, so the echo can reach
	// us before the return leg is counted.
	if !testutil.Poll(testutil.DefaultWaitTimeout, func() bool { return p.Forwarded() >= int64(2*len(msg)) }) {
		t.Fatalf("forwarded %d bytes, expected at least %d", p.Forwarded(), 2*len(msg))
	}
}

func TestChaosProxyAddsDelay(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewChaosProxy(addr, ChaosConfig{Delay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	// Two proxied hops (request and echo), 30ms each.
	if rtt := time.Since(start); rtt < 60*time.Millisecond {
		t.Fatalf("round trip %s under the 2×30ms injected delay", rtt)
	}
}

func TestChaosProxyKillsConnections(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewChaosProxy(addr, ChaosConfig{KillEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived the kill loop")
	}
	if !testutil.Poll(testutil.DefaultWaitTimeout, func() bool { return p.Killed() >= 1 }) {
		t.Fatalf("kill counter stuck at %d", p.Killed())
	}
}

func TestChaosProxyPartitionStallsThenRecovers(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewChaosProxy(addr, ChaosConfig{
		PartitionEvery: 20 * time.Millisecond,
		PartitionFor:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if !testutil.Poll(testutil.DefaultWaitTimeout, func() bool { return p.Partitions() >= 1 }) {
		t.Fatalf("no partition injected")
	}
	// Traffic sent into (or around) a partition still arrives once it
	// heals: stalls delay, never discard.
	if _, err := conn.Write([]byte("after partition\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("echo never arrived across partitions: %v", err)
	}
}

func TestChaosProxyCloseIsIdempotentAndClean(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewChaosProxy(addr, ChaosConfig{
		Delay:          5 * time.Millisecond,
		Jitter:         5 * time.Millisecond,
		KillEvery:      50 * time.Millisecond,
		PartitionEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("in flight\n"))
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := net.Dial("tcp", p.Addr()); err == nil {
		t.Fatal("proxy still accepting after Close")
	}
}
