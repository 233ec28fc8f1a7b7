package gsi

import (
	"testing"
	"time"

	"infogram/internal/wire"
)

func BenchmarkIssueIdentity(b *testing.B) {
	ca, err := NewCA("/O=Grid/CN=Bench CA", time.Hour, t0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.IssueIdentity("/O=Grid/CN=user", time.Hour, t0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelegate(b *testing.B) {
	ca, _ := NewCA("/O=Grid/CN=Bench CA", time.Hour, t0)
	cred, err := ca.IssueIdentity("/O=Grid/CN=user", time.Hour, t0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cred.Delegate(30*time.Minute, t0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyChain(b *testing.B) {
	ca, _ := NewCA("/O=Grid/CN=Bench CA", time.Hour, t0)
	trust := NewTrustStore(ca.Certificate())
	cred, _ := ca.IssueIdentity("/O=Grid/CN=user", time.Hour, t0)
	for _, depth := range []int{0, 2} {
		c := cred
		for i := 0; i < depth; i++ {
			next, err := c.Delegate(30*time.Minute, t0)
			if err != nil {
				b.Fatal(err)
			}
			c = next
		}
		b.Run(chainName(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := trust.VerifyChain(c.Chain, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func chainName(depth int) string {
	if depth == 0 {
		return "identity"
	}
	return "proxy-depth-2"
}

// BenchmarkHandshake runs connect + mutual authentication over loopback
// TCP; both ends verify the peer's full chain on every connection.
func BenchmarkHandshake(b *testing.B) {
	ca, _ := NewCA("/O=Grid/CN=Bench CA", time.Hour, t0)
	trust := NewTrustStore(ca.Certificate())
	identity, _ := ca.IssueIdentity("/O=Grid/CN=client", time.Hour, t0)
	server, _ := ca.IssueIdentity("/O=Grid/CN=server", time.Hour, t0)

	srv := wire.NewServer(wire.HandlerFunc(func(c *wire.Conn) {
		_, _ = ServerHandshake(c, server, trust, t0)
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, depth := range []int{0, 2} {
		client := identity
		for i := 0; i < depth; i++ {
			if client, err = client.Delegate(30*time.Minute, t0); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(chainName(depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conn, err := wire.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ClientHandshake(conn, client, trust, t0); err != nil {
					b.Fatal(err)
				}
				conn.Close()
			}
		})
	}
}
