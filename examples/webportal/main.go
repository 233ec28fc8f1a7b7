// Webportal: the paper's forwards-compatibility story in action (§1, §11:
// "It is straight forward to cast the InfoGram in WSDL"). An InfoGram
// service runs on the grid side; the Web-services gateway exposes it over
// HTTP with XML envelopes; a plain HTTP client — no GSI, no RSL library —
// queries information, launches a job, and polls it to completion.
package main

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/session"
	"infogram/internal/wsgw"
)

func main() {
	now := time.Now()
	// Grid side: CA, service, gateway credential.
	ca, err := gsi.NewCA("/O=Grid/CN=Portal CA", 24*time.Hour, now)
	check(err)
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, err := ca.IssueIdentity("/O=Grid/CN=portal-service", 12*time.Hour, now)
	check(err)
	gwCred, err := ca.IssueIdentity("/O=Grid/CN=portal-gateway", 12*time.Hour, now)
	check(err)
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=portal-gateway", "portal")

	registry := provider.NewRegistry(nil)
	registry.Register(provider.RuntimeProvider{}, provider.RegisterOptions{TTL: time.Second})
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("compute-pi", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		// Leibniz series, enough terms to look busy.
		sum := 0.0
		sign := 1.0
		for i := 0; i < 2_000_000; i++ {
			sum += sign / float64(2*i+1)
			sign = -sign
		}
		return fmt.Sprintf("pi≈%.9f", 4*sum), nil
	})

	svc := core.NewService(core.Config{
		ResourceName: "portal.example",
		Credential:   svcCred,
		Trust:        trust,
		Gridmap:      gm,
		Registry:     registry,
		Backends:     gram.Backends{Func: fn, Exec: &scheduler.Fork{}},
	})
	gridAddr, err := svc.Listen("127.0.0.1:0")
	check(err)
	defer svc.Close()

	// Web side: the SOAP/WSDL gateway.
	gw := wsgw.New(wsgw.Config{Backend: gridAddr, Credential: gwCred, Trust: trust})
	defer gw.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	httpSrv := session.NewHTTPServer(gw)
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("grid service: %s\nweb gateway:  %s\n\n", gridAddr, base)

	// A plain web client from here on.
	fmt.Println("== GET ?wsdl (first lines) ==")
	wsdl := httpGet(base + "/?wsdl")
	fmt.Println(firstLines(wsdl, 4))

	fmt.Println("\n== information query over HTTP ==")
	resp := soap(base, `<Envelope><Body><Submit><specification>(info=Runtime)</specification></Submit></Body></Envelope>`)
	fmt.Println(firstLines(resp, 12))

	fmt.Println("\n== job over HTTP ==")
	resp = soap(base, `<Envelope><Body><Submit><specification>(executable=compute-pi)(jobtype=func)</specification></Submit></Body></Envelope>`)
	var env struct {
		Body struct {
			Resp wsgw.SubmitResponse `xml:"SubmitResponse"`
		} `xml:"Body"`
	}
	check(xml.Unmarshal([]byte(resp), &env))
	contact := env.Body.Resp.Contact
	fmt.Printf("job contact: %s\n", contact)

	for {
		status := soap(base, `<Envelope><Body><Status><contact>`+contact+`</contact></Status></Body></Envelope>`)
		if strings.Contains(status, "<state>DONE</state>") || strings.Contains(status, "<state>FAILED</state>") {
			fmt.Println(firstLines(status, 10))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func soap(base, envelope string) string {
	resp, err := http.Post(base, "text/xml", strings.NewReader(envelope))
	check(err)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	check(err)
	return string(b)
}

func httpGet(url string) string {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	check(err)
	return string(b)
}

func firstLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = append(lines[:n], "  ...")
	}
	return strings.Join(lines, "\n")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
