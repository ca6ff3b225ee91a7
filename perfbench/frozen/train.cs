mila liso mila naba naba liso
vilapi fosu sefi zofeso zipe
bizanu sefi sefi bizanu zofeso tefuvo
neku fosu sefi bafoza zofeso buno bafoza
naba peve vilapi fosu kavora tefuvo
kavora kavora neku mila tefuvo
zofeso bizanu tefuvo zofeso neku tefuvo zipe
sefi neku minena vilapi sali
naba tefuvo zipe zofeso sali zipe
sali peve vilapi neku sefi sefi fosu
tefuvo sefi kavora vilapi liso mila naba
kavora minena liso tela bafoza tela bafoza
zipe tela vilapi mila peve sali peve
naba sali kavora zipe sali tela zipe
tefuvo kavora buno naba mila tefuvo
fosu minena bizanu neku tefuvo
bafoza bafoza zofeso zofeso mila sali tefuvo
tela vilapi kavora neku bizanu
kavora tefuvo zofeso kavora zofeso liso
buno buno tela sefi mila
peve sefi liso bafoza kavora kavora zipe
fosu naba bafoza tefuvo naba
liso mila mila kavora bizanu bafoza liso
fosu zipe neku minena kavora
zipe tela bafoza buno neku minena bafoza
tefuvo zofeso mila liso kavora naba sali
tela minena zipe liso peve zofeso kavora
zipe peve peve sali tela
peve neku kavora vilapi liso bizanu tefuvo
neku fosu vilapi zipe buno sefi
bafoza zipe peve bafoza sefi peve naba
fosu zipe zipe sefi fosu
