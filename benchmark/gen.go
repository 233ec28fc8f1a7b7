package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// Everything the services are asked is generated here from -seed; the
// services receive only the generated inputs. Providers return values
// derived from (member, keyword, attribute), so every answer can be
// checked without remembering what was sent before.

const (
	// hotKeywords × hotFilters is the hot key space: 4096 distinct
	// (keyword, matching filter glob) pairs on a 64-provider registry.
	hotKeywords = 64
	hotFilters  = 64
	hotKeys     = hotKeywords * hotFilters

	// Each provider reports attrGroups groups of attrsPerGroup attributes
	// named g<group>x<i>; a filter glob selects exactly one group, which
	// makes a single-keyword body about 0.5 KB and an 8-keyword body
	// about 3 KB.
	attrGroups    = 8
	attrsPerGroup = 4

	// query_cold asks 6 stable keywords (TTL 1 h) and 2 volatile ones that
	// execute on every request, out of 48 + 16.
	coldStable      = 48
	coldVolatile    = 16
	coldStablePerOp = 6
	coldVolPerOp    = 2

	// giis_search draws LDAP filters Zipf over 16 keywords × 16 shapes.
	giisKeywords = 16
	giisShapes   = 16
	giisMembers  = 4

	zipfS = 1.1
)

func kwName(k int) string { return fmt.Sprintf("K%02d", k) }

// splitmix64 is the value hash: cheap, seedless and stable across runs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// attrValue is the value provider kw of member reports for attribute
// g<group>x<i>: 48 hex digits, a function of its coordinates alone.
func attrValue(member, kw, group, i int) string {
	h := uint64(member)<<48 | uint64(kw)<<32 | uint64(group)<<16 | uint64(i)
	var sb strings.Builder
	for r := 0; r < 3; r++ {
		h = splitmix64(h)
		sb.WriteString(strconv.FormatUint(h|1<<63, 16))
	}
	return sb.String()
}

// opKind says what one operation does.
type opKind uint8

const (
	opInfo opKind = iota
	opStatus
	opSubmit
	opSearch
)

// request is one generated operation and what its answer must contain.
type request struct {
	kind opKind
	// src is the xRSL source (info, submit), the LDAP filter (search) or
	// the job contact (status).
	src string
	// kws are the keywords an info or search answer must report, in order;
	// group is the attribute group the filter selects.
	kws   []int
	group int
}

// hotGlob is the f-th filter glob selecting one attribute group of kw:
// eight spellings of each of the eight groups, all matching the same four
// attributes of a single-keyword answer.
func hotGlob(kw, f int) (glob string, group int) {
	group = f % attrGroups
	k, g := kwName(kw), "g"+strconv.Itoa(group)
	switch f / attrGroups {
	case 0:
		return "*:" + g + "x*", group
	case 1:
		return k + ":" + g + "x*", group
	case 2:
		return "*" + g + "x*", group
	case 3:
		return k + ":" + g + "*", group
	case 4:
		return "*:" + g + "*", group
	case 5:
		return "*" + g + "*", group
	case 6:
		return k + "*" + g + "x*", group
	default:
		return k + ":*" + g + "x*", group
	}
}

// hotTable is the 4096-entry hot key space, ordered by popularity rank
// under seed: rank 0 is the most requested key.
func hotTable(seed int64) []request {
	perm := rand.New(rand.NewSource(seed)).Perm(hotKeys)
	table := make([]request, hotKeys)
	for rank, key := range perm {
		kw, f := key/hotFilters, key%hotFilters
		glob, group := hotGlob(kw, f)
		table[rank] = request{
			kind:  opInfo,
			src:   "&(info=" + kwName(kw) + ")(filter=\"" + glob + "\")",
			kws:   []int{kw},
			group: group,
		}
	}
	return table
}

// giisFilter is the s-th LDAP filter shape selecting keyword kw's entries.
func giisFilter(kw, s int) string {
	k := kwName(kw)
	leaf := "(kw=" + k + ")"
	switch s {
	case 0:
		return leaf
	case 1:
		return "(&" + leaf + "(objectclass=InfoGramProvider))"
	case 2:
		return "(&(objectclass=InfoGramProvider)" + leaf + ")"
	case 3:
		return "(|" + leaf + leaf + ")"
	case 4:
		return "(&" + leaf + "(resource=gris*))"
	case 5:
		return "(&" + leaf + "(" + k + ":g0x0=*))"
	case 6:
		return "(" + k + ":g0x0=*)"
	case 7:
		return "(&(" + k + ":g1x1=*)(" + k + ":g2x2=*))"
	default:
		// Shapes 8..15: the keyword and one present attribute, by group.
		return "(&" + leaf + "(" + k + ":g" + strconv.Itoa(s-8) + "x3=*))"
	}
}

// giisTable is the 256-entry search key space by popularity rank.
func giisTable(seed int64) []request {
	n := giisKeywords * giisShapes
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	table := make([]request, n)
	for rank, key := range perm {
		kw, s := key/giisShapes, key%giisShapes
		table[rank] = request{kind: opSearch, src: giisFilter(kw, s), kws: []int{kw}}
	}
	return table
}

// generator is one caller's request stream: a pure function of the
// workload, the seed and the caller index.
type generator struct {
	workload string
	caller   int
	callers  int
	rng      *rand.Rand
	zipf     *rand.Zipf
	table    []request // shared, read-only
}

func newGenerator(workload string, seed int64, caller, callers int, table []request) *generator {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(caller) + 1))
	g := &generator{workload: workload, caller: caller, callers: callers, rng: rng, table: table}
	if len(table) > 0 {
		g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(table)-1))
	}
	return g
}

// next returns the caller's next request. Status requests leave src empty:
// the contact comes from an earlier submit's answer, not from the seed.
func (g *generator) next() request {
	switch g.workload {
	case wQueryHot, wConnectQuery, wGIISSearch:
		return g.table[g.zipf.Uint64()]
	case wQueryCold:
		return g.cold()
	case wJobCycle:
		return g.job()
	default: // proxy_mixed: info 7 : status 2 : submit 1
		switch d := g.rng.Intn(10); {
		case d < 7:
			return g.table[g.zipf.Uint64()]
		case d < 9:
			return request{kind: opStatus}
		default:
			return g.job()
		}
	}
}

func (g *generator) job() request {
	return request{kind: opSubmit,
		src: "&(executable=noop)(jobtype=func)(arguments=" + strconv.FormatInt(g.rng.Int63(), 36) + ")"}
}

// cold builds a never-repeating 8-keyword query: 6 distinct stable
// keywords in random order, then 2 distinct volatile ones drawn from this
// caller's own share of the volatile providers — so two callers never
// execute the same volatile provider at once and the provider cache's
// single-flight never merges their executions.
func (g *generator) cold() request {
	kws := make([]int, 0, coldStablePerOp+coldVolPerOp)
	for len(kws) < coldStablePerOp {
		if k := g.rng.Intn(coldStable); !slices.Contains(kws, k) {
			kws = append(kws, k)
		}
	}
	share := coldVolatile / g.callers
	lo := g.caller * share
	if share < coldVolPerOp { // more callers than the partition supports
		share, lo = coldVolatile, 0
	}
	for len(kws) < coldStablePerOp+coldVolPerOp {
		if k := coldStable + lo + g.rng.Intn(share); !slices.Contains(kws, k) {
			kws = append(kws, k)
		}
	}
	group := g.rng.Intn(attrGroups)
	gs := "g" + strconv.Itoa(group)
	glob := [...]string{"*:" + gs + "x*", "*" + gs + "x*", "*:" + gs + "*", "*" + gs + "*"}[g.rng.Intn(4)]
	var sb strings.Builder
	sb.WriteString("&")
	for _, k := range kws {
		sb.WriteString("(info=" + kwName(k) + ")")
	}
	sb.WriteString("(filter=\"" + glob + "\")")
	return request{kind: opInfo, src: sb.String(), kws: kws, group: group}
}
