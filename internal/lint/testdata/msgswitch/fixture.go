// Fixture for the msgswitch analyzer: every default-less type switch over
// the dispatch interface inside an OnMessage method must declare its wire
// set with //lint:dispatch and cover it exhaustively.
package fixture

import "prestigebft/internal/types"

// LocalPing is a package-local wire message, for the `local` spec.
type LocalPing struct{}

func (*LocalPing) Type() string     { return "ping" }
func (*LocalPing) ProtocolMessage() {}

type undeclared struct{}

func (undeclared) OnMessage(msg types.Message) {
	switch msg.(type) { // want `must declare its wire set`
	case *types.Prop:
	}
}

type incomplete struct{}

func (incomplete) OnMessage(msg types.Message) {
	//lint:dispatch prestigebft/internal/types=Prop,Compt
	switch msg.(type) { // want `missing \*types\.Compt`
	case *types.Prop:
	}
}

type complete struct{}

func (complete) OnMessage(msg types.Message) {
	//lint:dispatch prestigebft/internal/types=Prop,Compt
	switch msg.(type) {
	case *types.Prop:
	case *types.Compt:
	}
}

type localSet struct{}

func (localSet) OnMessage(msg types.Message) {
	//lint:dispatch local prestigebft/internal/types=Prop
	switch msg.(type) {
	case *LocalPing:
	case *types.Prop:
	}
}

type localMissing struct{}

func (localMissing) OnMessage(msg types.Message) {
	//lint:dispatch local
	switch msg.(type) { // want `missing \*fixture\.LocalPing`
	case *types.Prop:
	}
}

type hasDefault struct{}

// A default clause handles unknown messages explicitly: exempt, no
// directive required.
func (hasDefault) OnMessage(msg types.Message) {
	switch msg.(type) {
	case *types.Prop:
	default:
	}
}

type typoSpec struct{}

func (typoSpec) OnMessage(msg types.Message) {
	//lint:dispatch prestigebft/internal/types=NotAType
	switch msg.(type) { // want `is not a type`
	case *types.Prop:
	}
}

type otherMethod struct{}

// Not named OnMessage: outside the analyzer's anchor, no directive needed.
func (otherMethod) Handle(msg types.Message) {
	switch msg.(type) {
	case *types.Prop:
	}
}
