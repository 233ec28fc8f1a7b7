// Package wsgw implements the Web-services gateway the paper plans as its
// second phase: "Improve the reliability of the job execution and in a
// second phase while replacing the protocol used to perform the Job
// submission with SOAP" and "It is straight forward to cast the InfoGram
// in WSDL" (§1, §11). The gateway exposes InfoGram operations over HTTP
// with SOAP-style XML envelopes and serves a WSDL description, while the
// grid side of the bridge authenticates with an ordinary GSI credential —
// the trust model 2002-era portals used.
//
// Operations (POST to the service path, one operation element per call):
//
//	<Envelope><Body><Submit><specification>xRSL</specification></Submit></Body></Envelope>
//	<Envelope><Body><Status><contact>...</contact></Status></Body></Envelope>
//	<Envelope><Body><Cancel><contact>...</contact></Cancel></Body></Envelope>
//
// GET with ?wsdl returns the service description.
package wsgw

import (
	"context"
	"encoding/xml"
	"io"
	"net/http"

	"infogram/internal/core"
	"infogram/internal/gsi"
	"infogram/internal/xrsl"
)

// Config wires a gateway.
type Config struct {
	// Backend is the InfoGram service address the gateway bridges to.
	Backend string
	// Credential and Trust authenticate the gateway to the backend.
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	// Token, when non-empty, must be presented by web clients in the
	// X-InfoGram-Token header.
	Token string
}

// Gateway is an http.Handler bridging SOAP-style requests to InfoGram.
type Gateway struct {
	cfg Config
	cl  *core.Client
}

// New builds a gateway. Its one backend client connects on the first
// request, multiplexes concurrent web requests over one GSI connection
// and re-dials after a transport failure. Reads (an information Submit,
// Status) are retried once; a job Submit or Cancel is never re-sent, so a
// lost reply is a Fault instead of a job run twice.
func New(cfg Config) *Gateway {
	return &Gateway{cfg: cfg, cl: core.NewClient(cfg.Backend, cfg.Credential, cfg.Trust,
		core.Options{Retry: core.RetryPolicy{MaxAttempts: 2}})}
}

// Close releases the backend connection; requests after it fault.
func (g *Gateway) Close() { g.cl.Close() }

// Envelope shapes.

type envelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Body    body     `xml:"Body"`
}

type body struct {
	Submit *submitOp `xml:"Submit"`
	Status *statusOp `xml:"Status"`
	Cancel *cancelOp `xml:"Cancel"`
}

type submitOp struct {
	Specification string `xml:"specification"`
}

type statusOp struct {
	Contact string `xml:"contact"`
}

type cancelOp struct {
	Contact string `xml:"contact"`
}

type responseEnvelope struct {
	XMLName xml.Name     `xml:"Envelope"`
	Body    responseBody `xml:"Body"`
}

// responseBody carries exactly one response element.
type responseBody struct {
	Submit *SubmitResponse `xml:",omitempty"`
	Status *StatusResponse `xml:",omitempty"`
	Cancel *CancelResponse `xml:",omitempty"`
	Fault  *Fault          `xml:",omitempty"`
}

// SubmitResponse is the reply to a Submit operation: a job yields a
// contact, an information query yields an inline result document.
type SubmitResponse struct {
	XMLName xml.Name `xml:"SubmitResponse"`
	Kind    string   `xml:"kind"`
	Contact string   `xml:"contact,omitempty"`
	Format  string   `xml:"result>format,omitempty"`
	Result  string   `xml:"result>document,omitempty"`
}

// StatusResponse is the reply to a Status operation.
type StatusResponse struct {
	XMLName  xml.Name `xml:"StatusResponse"`
	Contact  string   `xml:"contact"`
	State    string   `xml:"state"`
	ExitCode int      `xml:"exitCode"`
	Error    string   `xml:"error,omitempty"`
	Stdout   string   `xml:"stdout,omitempty"`
}

// CancelResponse is the reply to a Cancel operation.
type CancelResponse struct {
	XMLName xml.Name `xml:"CancelResponse"`
	Contact string   `xml:"contact"`
}

// Fault is the error reply.
type Fault struct {
	XMLName xml.Name `xml:"Fault"`
	Code    string   `xml:"faultcode"`
	Message string   `xml:"faultstring"`
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		if _, ok := r.URL.Query()["wsdl"]; ok {
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			_, _ = io.WriteString(w, WSDL)
			return
		}
		http.Error(w, "POST an envelope, or GET ?wsdl", http.StatusBadRequest)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if g.cfg.Token != "" && r.Header.Get("X-InfoGram-Token") != g.cfg.Token {
		g.fault(w, http.StatusUnauthorized, "Client", "missing or invalid token")
		return
	}
	var env envelope
	if err := xml.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&env); err != nil {
		g.fault(w, http.StatusBadRequest, "Client", "malformed envelope: "+err.Error())
		return
	}
	ctx := r.Context()
	switch {
	case env.Body.Submit != nil:
		g.handleSubmit(ctx, w, env.Body.Submit.Specification)
	case env.Body.Status != nil:
		g.handleStatus(ctx, w, env.Body.Status.Contact)
	case env.Body.Cancel != nil:
		g.handleCancel(ctx, w, env.Body.Cancel.Contact)
	default:
		g.fault(w, http.StatusBadRequest, "Client", "envelope carries no known operation")
	}
}

func (g *Gateway) handleSubmit(ctx context.Context, w http.ResponseWriter, spec string) {
	// Classify the specification before touching the backend: only an
	// information request may be retried. The gateway supports single
	// requests; grid clients use the native protocol for multi-requests.
	reqs, err := xrsl.Decode(spec, nil)
	if err != nil {
		g.fault(w, http.StatusBadRequest, "Client", err.Error())
		return
	}
	if len(reqs) != 1 {
		g.fault(w, http.StatusBadRequest, "Client", "the gateway accepts a single request per Submit")
		return
	}
	var resp SubmitResponse
	if reqs[0].Kind == xrsl.KindInfo {
		var res core.InfoResult
		res, err = g.cl.QueryRawContext(ctx, spec)
		resp = SubmitResponse{Kind: "info", Format: string(res.Format), Result: res.Raw}
	} else {
		resp.Kind = "job"
		resp.Contact, err = g.cl.SubmitContext(ctx, spec)
	}
	if err != nil {
		g.fault(w, http.StatusBadGateway, "Server", err.Error())
		return
	}
	g.reply(w, responseBody{Submit: &resp})
}

func (g *Gateway) handleStatus(ctx context.Context, w http.ResponseWriter, contact string) {
	st, err := g.cl.StatusContext(ctx, contact)
	if err != nil {
		g.fault(w, http.StatusBadGateway, "Server", err.Error())
		return
	}
	g.reply(w, responseBody{Status: &StatusResponse{
		Contact:  st.Contact,
		State:    st.State.String(),
		ExitCode: st.ExitCode,
		Error:    st.Error,
		Stdout:   st.Stdout,
	}})
}

func (g *Gateway) handleCancel(ctx context.Context, w http.ResponseWriter, contact string) {
	if err := g.cl.CancelContext(ctx, contact); err != nil {
		g.fault(w, http.StatusBadGateway, "Server", err.Error())
		return
	}
	g.reply(w, responseBody{Cancel: &CancelResponse{Contact: contact}})
}

func (g *Gateway) reply(w http.ResponseWriter, payload responseBody) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = io.WriteString(w, xml.Header)
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(responseEnvelope{Body: payload}); err != nil {
		// Headers are already out; the client sees a truncated document.
		return
	}
	_ = enc.Flush()
}

func (g *Gateway) fault(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(status)
	_, _ = io.WriteString(w, xml.Header)
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	_ = enc.Encode(responseEnvelope{Body: responseBody{Fault: &Fault{Code: code, Message: msg}}})
	_ = enc.Flush()
}

// WSDL is the service description served at ?wsdl: the paper's "cast the
// InfoGram in WSDL", listing the three operations and their message
// shapes.
const WSDL = `<?xml version="1.0" encoding="UTF-8"?>
<definitions name="InfoGram"
    targetNamespace="urn:infogram"
    xmlns="http://schemas.xmlsoap.org/wsdl/">
  <documentation>
    InfoGram: a Grid service that supports both information queries and
    job execution. A Submit operation carries an xRSL specification; an
    information specification answers inline, a job specification answers
    with a job contact usable in Status and Cancel.
  </documentation>
  <message name="SubmitRequest"><part name="specification" type="xsd:string"/></message>
  <message name="SubmitResponse">
    <part name="kind" type="xsd:string"/>
    <part name="contact" type="xsd:string"/>
    <part name="result" type="xsd:string"/>
  </message>
  <message name="StatusRequest"><part name="contact" type="xsd:string"/></message>
  <message name="StatusResponse">
    <part name="state" type="xsd:string"/>
    <part name="exitCode" type="xsd:int"/>
    <part name="stdout" type="xsd:string"/>
  </message>
  <message name="CancelRequest"><part name="contact" type="xsd:string"/></message>
  <message name="CancelResponse"><part name="contact" type="xsd:string"/></message>
  <portType name="InfoGramPortType">
    <operation name="Submit">
      <input message="SubmitRequest"/><output message="SubmitResponse"/>
    </operation>
    <operation name="Status">
      <input message="StatusRequest"/><output message="StatusResponse"/>
    </operation>
    <operation name="Cancel">
      <input message="CancelRequest"/><output message="CancelResponse"/>
    </operation>
  </portType>
</definitions>
`
