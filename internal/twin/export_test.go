package twin

// The model names, for the tests.
const (
	ModelMarkov = modelMarkov
	ModelQueue  = modelQueue
)
